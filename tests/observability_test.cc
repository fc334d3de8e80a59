// Observability subsystem: the metrics registry primitives, the bounded
// covering cache, the slow-op profiler, structured explain() across the four
// approaches, and the streaming-accounting regressions the counters exposed.

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "st/st_store.h"

namespace stix {
namespace {

// ---------- Metrics primitives ----------

TEST(MetricsTest, CounterSumsConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread);
  c.Increment(42);
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kPerThread + 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeTracksValueAndHighWater) {
  Gauge g;
  g.Add(5);
  g.UpdateMax();
  g.Add(3);
  g.UpdateMax();
  g.Sub(6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 8);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 0);
}

TEST(MetricsTest, HistogramBucketsQuantilesAndExtremes) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  h.Observe(0);
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 1001u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), (1000.0 * 1001.0 / 2.0) / 1001.0);
  // Base-2 buckets bound the quantile estimate to the covering bucket.
  const double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_LE(snap.Quantile(0.0), snap.Quantile(0.99));
  h.Reset();
  EXPECT_EQ(h.Snap().count, 0u);
}

TEST(MetricsTest, RegistryReturnsStableReferencesAndSnapshots) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter& a = reg.GetCounter("test.registry.counter");
  Counter& b = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.Increment(7);
  reg.GetGauge("test.registry.gauge").Set(-3);
  reg.GetHistogram("test.registry.histo").Observe(17);

  const std::vector<std::string> names = reg.CounterNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.registry.counter"),
            names.end());

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"test.registry.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.registry.histo\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace stix

namespace stix::st {
namespace {

using bson::Value;

geo::Rect RectAt(double lon, double lat, double w, double h) {
  return geo::Rect{{lon, lat}, {lon + w, lat + h}};
}

// ---------- Covering cache: bounded LRU (regression for unbounded growth)

ApproachConfig SmallHilConfig() {
  ApproachConfig config;
  config.kind = ApproachKind::kHil;
  config.hilbert_order = 6;  // cheap coverings; cache behaviour is identical
  return config;
}

// A distinct cache key per i: distinct rects and distinct windows.
geo::Rect DistinctRect(Rng* rng) {
  return RectAt(rng->NextDouble(-179.0, 178.0), rng->NextDouble(-89.0, 88.0),
                0.5, 0.5);
}

TEST(CoverCacheTest, StaysBoundedUnderManyDistinctRects) {
  const Approach a(SmallHilConfig());
  Rng rng(7);
  const uint64_t n = kCoverCacheCapacity + 1;
  for (uint64_t i = 0; i < n; ++i) {
    (void)a.TranslateQuery(DistinctRect(&rng), static_cast<int64_t>(i),
                           static_cast<int64_t>(i) + 1000);
  }
  EXPECT_EQ(a.cover_cache_size(), kCoverCacheCapacity);
  const CoverCacheStats stats = a.cover_cache_stats();
  EXPECT_EQ(stats.misses, n);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(CoverCacheTest, EvictsLeastRecentlyUsedNotMostRecent) {
  const Approach a(SmallHilConfig());
  const geo::Rect ra = RectAt(10, 10, 1, 1);
  const geo::Rect rb = RectAt(20, 20, 1, 1);
  const geo::Rect rc = RectAt(30, 30, 1, 1);
  (void)a.TranslateQuery(ra, 0, 1);  // miss  {A}
  (void)a.TranslateQuery(rb, 0, 1);  // miss  {B, A}
  // Fill the cache to capacity behind them (windows no query above uses).
  Rng rng(11);
  for (size_t i = 2; i < kCoverCacheCapacity; ++i) {
    (void)a.TranslateQuery(DistinctRect(&rng), 10,
                           11 + static_cast<int64_t>(i));
  }
  ASSERT_EQ(a.cover_cache_size(), kCoverCacheCapacity);
  ASSERT_EQ(a.cover_cache_stats().evictions, 0u);
  (void)a.TranslateQuery(ra, 0, 1);  // hit   A refreshed; B is now the LRU
  (void)a.TranslateQuery(rc, 0, 1);  // miss  evicts B, not A
  EXPECT_EQ(a.cover_cache_size(), kCoverCacheCapacity);
  EXPECT_EQ(a.cover_cache_stats().evictions, 1u);

  EXPECT_TRUE(a.TranslateQuery(ra, 0, 1).cache_hit);   // A survived
  EXPECT_FALSE(a.TranslateQuery(rb, 0, 1).cache_hit);  // B was evicted
}

TEST(CoverCacheTest, RepeatedShapeIsServedFromCache) {
  const Approach a(SmallHilConfig());
  const geo::Rect r = RectAt(23.5, 37.5, 0.4, 0.4);
  const TranslatedQuery first = a.TranslateQuery(r, 100, 200);
  EXPECT_FALSE(first.cache_hit);
  const TranslatedQuery second = a.TranslateQuery(r, 100, 200);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cover_millis, 0.0);
  EXPECT_EQ(second.num_ranges, first.num_ranges);
  EXPECT_EQ(second.num_singletons, first.num_singletons);
  // The cached expression is the same immutable object.
  EXPECT_EQ(second.expr.get(), first.expr.get());
}

// ---------- Slow-op profiler (ring-buffer unit behaviour) ----------

TEST(ProfilerTest, RingEvictsOldestBeyondCapacity) {
  cluster::ProfilerOptions options;
  options.enabled = true;
  options.slow_millis = 0.0;
  options.capacity = 3;
  cluster::OpProfiler profiler(options);
  for (int i = 0; i < 5; ++i) {
    cluster::ProfiledOp op;
    op.query = "q" + std::to_string(i);
    profiler.Record(std::move(op));
  }
  EXPECT_EQ(profiler.num_recorded(), 5u);
  const std::vector<cluster::ProfiledOp> ops = profiler.Ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].op_id, 3u);  // oldest retained
  EXPECT_EQ(ops[2].op_id, 5u);  // newest
  EXPECT_EQ(ops[2].query, "q4");

  profiler.Clear();
  EXPECT_EQ(profiler.num_recorded(), 0u);
  EXPECT_TRUE(profiler.Ops().empty());
}

TEST(ProfilerTest, ThresholdAndEnablementGateRecording) {
  cluster::ProfilerOptions options;
  options.enabled = false;
  options.slow_millis = 0.0;
  cluster::OpProfiler profiler(options);
  EXPECT_FALSE(profiler.ShouldRecord(1e9));  // disabled

  options.enabled = true;
  options.slow_millis = 50.0;
  profiler.Configure(options);
  EXPECT_FALSE(profiler.ShouldRecord(49.9));
  EXPECT_TRUE(profiler.ShouldRecord(50.0));
}

TEST(ProfilerTest, ConfigureShrinkDropsOldestEntries) {
  cluster::OpProfiler profiler(
      cluster::ProfilerOptions{true, 0.0, /*capacity=*/8});
  for (int i = 0; i < 6; ++i) profiler.Record(cluster::ProfiledOp{});
  cluster::ProfilerOptions smaller;
  smaller.enabled = true;
  smaller.slow_millis = 0.0;
  smaller.capacity = 2;
  profiler.Configure(smaller);
  const std::vector<cluster::ProfiledOp> ops = profiler.Ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op_id, 5u);
  EXPECT_EQ(ops[1].op_id, 6u);
}

// ---------- End-to-end: explain, profiler, ServerStatus over the four
// approaches ----------

class ObservabilityStoreTest : public ::testing::TestWithParam<ApproachKind> {
 protected:
  static constexpr int kDocs = 1200;
  static constexpr int64_t kSpanBegin = 1530403200000;
  static constexpr int64_t kStepMs = 60000;

  StStoreOptions Options() {
    StStoreOptions opts;
    opts.approach.kind = GetParam();
    opts.approach.dataset_mbr = geo::Rect{{23.0, 37.0}, {25.0, 39.0}};
    opts.cluster.num_shards = 4;
    opts.cluster.chunk_max_bytes = 16 * 1024;
    opts.cluster.balance_every_inserts = 300;
    opts.cluster.seed = 3;
    opts.cluster.profiler.enabled = true;
    opts.cluster.profiler.slow_millis = 0.0;  // record every op
    opts.cluster.profiler.capacity = 32;
    return opts;
  }

  void Load(StStore* store) {
    Rng rng(55);
    for (int i = 0; i < kDocs; ++i) {
      bson::Document doc;
      doc.Append("seq", Value::Int32(i));
      const double lon = rng.NextDouble(23.0, 25.0);
      const double lat = rng.NextDouble(37.0, 39.0);
      doc.Append(kLocationField,
                 Value::MakeDocument(bson::GeoJsonPoint(lon, lat)));
      doc.Append(kDateField, Value::DateTime(kSpanBegin + i * kStepMs));
      ASSERT_TRUE(store->Insert(std::move(doc)).ok());
    }
    ASSERT_TRUE(store->FinishLoad().ok());
  }

  static geo::Rect QueryRect() { return geo::Rect{{23.4, 37.4}, {24.4, 38.4}}; }
  static int64_t T0() { return kSpanBegin + 100 * kStepMs; }
  static int64_t T1() { return kSpanBegin + 900 * kStepMs; }
};

// The core explain invariant: the stage trees describe the same execution
// the totals describe, so per-stage sums equal the cluster totals exactly.
TEST_P(ObservabilityStoreTest, ExplainStageSumsEqualClusterTotals) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const StExplain explain = store.Explain(QueryRect(), T0(), T1());
  const cluster::ClusterExplain& ce = explain.cluster;
  EXPECT_EQ(ce.SumStageKeysExamined(), ce.result.total_keys_examined);
  EXPECT_EQ(ce.SumStageDocsExamined(), ce.result.total_docs_examined);
  EXPECT_EQ(static_cast<int>(ce.shards.size()), ce.result.nodes_contacted);
  EXPECT_EQ(ce.total_shards, 4);
  EXPECT_FALSE(ce.shard_key.empty());

  // Per-shard: the winning tree's sums equal that shard's executor stats,
  // and stage timing was enabled (explain runs with per-stage clocks on).
  uint64_t stage_n_returned = 0;
  for (const cluster::ShardExplain& shard : ce.shards) {
    EXPECT_EQ(shard.winning_plan.TotalKeysExamined(),
              shard.stats.keys_examined);
    EXPECT_EQ(shard.winning_plan.TotalDocsExamined(),
              shard.stats.docs_examined);
    EXPECT_GE(shard.winning_plan.time_millis, 0.0);
    stage_n_returned += shard.stats.n_returned;
  }
  EXPECT_EQ(stage_n_returned, ce.result.n_returned);

  // The explain execution returns what a normal query returns.
  const StQueryResult plain = store.Query(QueryRect(), T0(), T1());
  EXPECT_EQ(ce.result.n_returned, plain.cluster.docs.size());
}

TEST_P(ObservabilityStoreTest, ExplainVerbositiesControlSerialization) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const StExplain planner = store.Explain(
      QueryRect(), T0(), T1(), query::ExplainVerbosity::kQueryPlanner);
  const std::string planner_json = planner.ToJson();
  EXPECT_NE(planner_json.find("\"winningPlan\""), std::string::npos);
  EXPECT_NE(planner_json.find("IXSCAN"), std::string::npos);
  EXPECT_EQ(planner_json.find("\"keysExamined\""), std::string::npos);
  EXPECT_EQ(planner_json.find("\"rejectedPlans\""), std::string::npos);

  const StExplain exec = store.Explain(QueryRect(), T0(), T1(),
                                       query::ExplainVerbosity::kExecStats);
  const std::string exec_json = exec.ToJson();
  EXPECT_NE(exec_json.find("\"executionStats\""), std::string::npos);
  EXPECT_NE(exec_json.find("\"totalKeysExamined\""), std::string::npos);
  EXPECT_NE(exec_json.find("executionTimeMillisEstimate"), std::string::npos);
  EXPECT_EQ(exec_json.find("\"rejectedPlans\""), std::string::npos);

  const StExplain all = store.Explain(
      QueryRect(), T0(), T1(), query::ExplainVerbosity::kAllPlansExecution);
  const std::string all_json = all.ToJson();
  EXPECT_NE(all_json.find("\"rejectedPlans\""), std::string::npos);
  EXPECT_NE(all_json.find("\"covering\""), std::string::npos);
  EXPECT_NE(all_json.find("\"approach\""), std::string::npos);
}

// Golden plan shapes: which index wins and how the tree is built is part of
// each approach's contract.
TEST_P(ObservabilityStoreTest, ExplainGoldenPlanShape) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  const StExplain explain = store.Explain(QueryRect(), T0(), T1());
  EXPECT_EQ(explain.approach, std::string(store.approach().name()));
  ASSERT_FALSE(explain.cluster.shards.empty());

  const bool hilbert = GetParam() == ApproachKind::kHil ||
                       GetParam() == ApproachKind::kHilStar;
  for (const cluster::ShardExplain& shard : explain.cluster.shards) {
    // Every approach resolves to an index-assisted plan on loaded shards:
    // FETCH with a residual filter over an IXSCAN.
    ASSERT_EQ(shard.winning_plan.stage, "FETCH");
    ASSERT_EQ(shard.winning_plan.children.size(), 1u);
    const query::ExplainNode& scan = shard.winning_plan.children[0];
    EXPECT_EQ(scan.stage, "IXSCAN");
    EXPECT_FALSE(scan.bounds.empty());
    if (hilbert) {
      EXPECT_EQ(scan.index_name, "hilbertIndex_1_date_1");
    } else if (GetParam() == ApproachKind::kBslST) {
      EXPECT_TRUE(scan.index_name == "location_2dsphere_date_1" ||
                  scan.index_name == "date_1")
          << scan.index_name;
    } else {
      EXPECT_TRUE(scan.index_name == "date_1_location_2dsphere" ||
                  scan.index_name == "date_1")
          << scan.index_name;
    }
  }

  if (hilbert) {
    EXPECT_GT(explain.num_ranges + explain.num_singletons, 0u);
  } else {
    EXPECT_EQ(explain.num_ranges + explain.num_singletons, 0u);
  }
}

// Satellite regression: a batched, drained cursor must account identically
// to the one-shot Query() path (same totals, no double-counting across
// getMore rounds).
TEST_P(ObservabilityStoreTest, DrainedCursorAccountingMatchesOneShotQuery) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  // Warm the plan caches so both measured runs replay the same cached plan.
  (void)store.Query(QueryRect(), T0(), T1());

  const StQueryResult one_shot = store.Query(QueryRect(), T0(), T1());

  StCursorOptions batched;
  batched.batch_size = 64;
  StCursor cursor = store.OpenQuery(QueryRect(), T0(), T1(), batched);
  uint64_t streamed_docs = 0;
  int rounds = 0;
  while (!cursor.exhausted()) {
    streamed_docs += cursor.NextBatch().size();
    ++rounds;
  }
  const StQueryResult drained = cursor.Summary();

  EXPECT_TRUE(drained.cluster.status.ok());
  EXPECT_EQ(drained.cluster.n_returned, one_shot.cluster.n_returned);
  EXPECT_EQ(streamed_docs, one_shot.cluster.docs.size());
  EXPECT_EQ(drained.cluster.total_keys_examined,
            one_shot.cluster.total_keys_examined);
  EXPECT_EQ(drained.cluster.total_docs_examined,
            one_shot.cluster.total_docs_examined);
  EXPECT_EQ(drained.cluster.max_keys_examined,
            one_shot.cluster.max_keys_examined);
  EXPECT_EQ(drained.cluster.bytes_materialized,
            one_shot.cluster.bytes_materialized);
  EXPECT_EQ(one_shot.cluster.num_batches, 1);
  // Delivered rounds only; the final empty probe (if any) adds nothing.
  EXPECT_LE(drained.cluster.num_batches, rounds);
  EXPECT_GT(drained.cluster.num_batches, 0);
}

// Satellite regression (fail-point driven): rounds killed by a shard fault
// deliver nothing and must not be counted as batches, in either path.
TEST_P(ObservabilityStoreTest, FaultedRoundsAreNotCountedAsBatches) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlwaysOn;
  config.error_code = StatusCode::kInternal;
  config.error_message = "shard died";
  fp->Enable(config);

  // One-shot path: the single round faults before any document flows.
  const StQueryResult one_shot = store.Query(QueryRect(), T0(), T1());
  EXPECT_FALSE(one_shot.cluster.status.ok());
  EXPECT_EQ(one_shot.cluster.num_batches, 0);
  EXPECT_EQ(one_shot.cluster.n_returned, 0u);

  // Streaming path: same contract.
  StCursorOptions batched;
  batched.batch_size = 32;
  StCursor cursor = store.OpenQuery(QueryRect(), T0(), T1(), batched);
  EXPECT_TRUE(cursor.NextBatch().empty());
  EXPECT_TRUE(cursor.exhausted());
  const StQueryResult drained = cursor.Summary();
  EXPECT_FALSE(drained.cluster.status.ok());
  EXPECT_EQ(drained.cluster.num_batches, 0);
  EXPECT_EQ(drained.cluster.n_returned, 0u);

  fp->Disable();

  // Clean recovery, and the faulted attempts did not pollute accounting.
  const StQueryResult recovered = store.Query(QueryRect(), T0(), T1());
  EXPECT_TRUE(recovered.cluster.status.ok());
  EXPECT_EQ(recovered.cluster.num_batches, 1);
  EXPECT_EQ(recovered.cluster.n_returned, recovered.cluster.docs.size());
}

TEST_P(ObservabilityStoreTest, ProfilerRecordsQueriesWithExplainTrees) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);

  cluster::OpProfiler& profiler = store.cluster().profiler();
  profiler.Clear();
  (void)store.Query(QueryRect(), T0(), T1());
  (void)store.Query(QueryRect(), T0(), T1());

  ASSERT_GE(profiler.num_recorded(), 2u);
  const std::vector<cluster::ProfiledOp> ops = profiler.Ops();
  ASSERT_GE(ops.size(), 2u);
  const cluster::ProfiledOp& last = ops.back();
  EXPECT_FALSE(last.query.empty());
  EXPECT_GT(last.op_id, ops.front().op_id);
  // The recorded explain tree satisfies the same sum invariant.
  EXPECT_EQ(last.explain.SumStageKeysExamined(),
            last.explain.result.total_keys_examined);
  EXPECT_FALSE(last.explain.shards.empty());
  EXPECT_NE(last.ToJson().find("\"explain\""), std::string::npos);

  // A threshold above every modeled time records nothing further.
  cluster::ProfilerOptions quiet;
  quiet.enabled = true;
  quiet.slow_millis = 1e12;
  quiet.capacity = 32;
  profiler.Configure(quiet);
  const uint64_t before = profiler.num_recorded();
  (void)store.Query(QueryRect(), T0(), T1());
  EXPECT_EQ(profiler.num_recorded(), before);
}

TEST_P(ObservabilityStoreTest, ServerStatusExposesMetricsAndProfiler) {
  StStore store(Options());
  ASSERT_TRUE(store.Setup().ok());
  Load(&store);
  (void)store.Query(QueryRect(), T0(), T1());

  const std::string status = store.cluster().ServerStatus();
  EXPECT_NE(status.find("\"shards\": 4"), std::string::npos);
  EXPECT_NE(status.find("\"metrics\""), std::string::npos);
  EXPECT_NE(status.find("\"profiler\""), std::string::npos);
  // Instrumented subsystems that necessarily ran during load + query.
  EXPECT_NE(status.find("\"btree.splits\""), std::string::npos);
  EXPECT_NE(status.find("\"btree.node_reads\""), std::string::npos);
  EXPECT_NE(status.find("\"cluster.batches\""), std::string::npos);
  // The plan cache is only consulted when the planner produced more than
  // one candidate; hilbert queries have a single index, so only the
  // baselines (which race two candidates) necessarily register it.
  if (GetParam() == ApproachKind::kBslST || GetParam() == ApproachKind::kBslTS) {
    EXPECT_NE(status.find("\"plan_cache."), std::string::npos);
  }

  MetricsRegistry& reg = MetricsRegistry::Instance();
  EXPECT_GT(reg.GetCounter("btree.node_reads").value(), 0u);
  EXPECT_GT(reg.GetCounter("cluster.batches").value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, ObservabilityStoreTest,
                         ::testing::Values(ApproachKind::kBslST,
                                           ApproachKind::kBslTS,
                                           ApproachKind::kHil,
                                           ApproachKind::kHilStar),
                         [](const auto& info) {
                           switch (info.param) {
                             case ApproachKind::kBslST: return "bslST";
                             case ApproachKind::kBslTS: return "bslTS";
                             case ApproachKind::kHil: return "hil";
                             default: return "hilStar";
                           }
                         });

}  // namespace
}  // namespace stix::st
