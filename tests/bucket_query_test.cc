#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bson/codec.h"
#include "bson/object_id.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "query/bucket_unpack.h"
#include "query/expression.h"
#include "st/knn.h"
#include "st/st_store.h"
#include "workload/trajectory_generator.h"

namespace stix::st {
namespace {

constexpr int64_t kHourMs = 3600 * 1000;

StStoreOptions BaseOptions(ApproachKind kind, bool bucket) {
  StStoreOptions options;
  options.approach.kind = kind;
  options.approach.dataset_mbr = workload::TrajectoryGenerator::GreeceMbr();
  options.cluster.num_shards = 3;
  options.cluster.seed = 11;
  if (bucket) {
    storage::BucketLayout layout;
    layout.window_ms = 6 * kHourMs;
    options.bucket = layout;
  }
  return options;
}

// `span_ms` > 0 compresses the data into that long a period, so buckets
// hold many points each.
std::unique_ptr<StStore> LoadedStore(ApproachKind kind, bool bucket,
                                     uint64_t docs, int64_t span_ms = 0) {
  auto store = std::make_unique<StStore>(BaseOptions(kind, bucket));
  EXPECT_TRUE(store->Setup().ok());
  workload::TrajectoryOptions traj;
  if (span_ms > 0) traj.t_end_ms = traj.t_begin_ms + span_ms;
  traj.num_records = docs;
  traj.num_vehicles = 20;
  traj.seed = 1234;
  workload::TrajectoryGenerator gen(traj);
  bson::Document doc;
  while (gen.Next(&doc)) {
    EXPECT_TRUE(store->Insert(std::move(doc)).ok());
  }
  return store;
}

// Canonical sorted rendering of a result set, for order-insensitive
// equality between layouts.
std::multiset<std::string> Canon(const std::vector<bson::Document>& docs) {
  std::multiset<std::string> out;
  for (const bson::Document& d : docs) out.insert(bson::EncodeBson(d));
  return out;
}

TEST(BucketQueryTest, RowAndBucketAnswerIdentically) {
  const workload::TrajectoryOptions traj;
  const int64_t t0 = traj.t_begin_ms;
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  for (const ApproachKind kind : {ApproachKind::kBslTS, ApproachKind::kHil}) {
    const auto row = LoadedStore(kind, false, 2000);
    const auto bucket = LoadedStore(kind, true, 2000);
    const geo::Rect rects[] = {
        {{23.0, 37.5}, {24.4, 38.5}},    // Athens-ish
        {{19.0, 34.0}, {29.0, 42.0}},    // everything
        {{26.9, 40.9}, {27.0, 41.0}},    // almost nothing
    };
    const std::pair<int64_t, int64_t> windows[] = {
        {t0, t0 + span},                  // full span
        {t0 + span / 3, t0 + span / 2},   // inner window
        {t0 - 10 * span, t0 - span},      // empty window
    };
    for (const geo::Rect& rect : rects) {
      for (const auto& [a, b] : windows) {
        const StQueryResult rr = row->Query(rect, a, b);
        const StQueryResult br = bucket->Query(rect, a, b);
        ASSERT_TRUE(rr.cluster.status.ok());
        ASSERT_TRUE(br.cluster.status.ok());
        EXPECT_EQ(Canon(rr.cluster.docs), Canon(br.cluster.docs))
            << ApproachName(kind) << " rect [" << rect.lo.lon << ","
            << rect.hi.lon << "] window " << a << ".." << b;
      }
    }
  }
}

TEST(BucketQueryTest, PolygonAndKnnAnswerIdentically) {
  const workload::TrajectoryOptions traj;
  const auto row = LoadedStore(ApproachKind::kHil, false, 1500);
  const auto bucket = LoadedStore(ApproachKind::kHil, true, 1500);

  const geo::Polygon triangle{{
      {22.0, 36.5}, {25.5, 37.0}, {23.8, 40.0}}};
  const StQueryResult rp = row->QueryPolygon(triangle, traj.t_begin_ms,
                                             traj.t_end_ms);
  const StQueryResult bp = bucket->QueryPolygon(triangle, traj.t_begin_ms,
                                                traj.t_end_ms);
  ASSERT_TRUE(rp.cluster.status.ok());
  ASSERT_TRUE(bp.cluster.status.ok());
  EXPECT_FALSE(rp.cluster.docs.empty());
  EXPECT_EQ(Canon(rp.cluster.docs), Canon(bp.cluster.docs));

  const geo::Point center{23.7275, 37.9838};
  KnnOptions knn;
  knn.k = 10;
  const KnnResult rk =
      KnnQuery(*row, center, traj.t_begin_ms, traj.t_end_ms, knn);
  const KnnResult bk =
      KnnQuery(*bucket, center, traj.t_begin_ms, traj.t_end_ms, knn);
  ASSERT_EQ(rk.neighbors.size(), bk.neighbors.size());
  for (size_t i = 0; i < rk.neighbors.size(); ++i) {
    EXPECT_DOUBLE_EQ(rk.neighbors[i].distance_m, bk.neighbors[i].distance_m)
        << "neighbor " << i;
  }
}

// ---------- explain: BUCKET_UNPACK stage-tree invariants ----------

const query::ExplainNode* FindStage(const query::ExplainNode& node,
                                    const std::string& stage) {
  if (node.stage == stage) return &node;
  for (const query::ExplainNode& child : node.children) {
    if (const query::ExplainNode* hit = FindStage(child, stage)) return hit;
  }
  return nullptr;
}

TEST(BucketQueryTest, ExplainShowsBucketUnpackWithConsistentCounters) {
  const workload::TrajectoryOptions traj;
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 2000);
  const geo::Rect athens{{23.0, 37.5}, {24.4, 38.5}};
  const int64_t mid = traj.t_begin_ms + (traj.t_end_ms - traj.t_begin_ms) / 2;
  const StExplain explain = bucket->Explain(athens, traj.t_begin_ms, mid);

  uint64_t total_unpacked = 0;
  uint64_t total_returned = 0;
  for (const cluster::ShardExplain& shard : explain.cluster.shards) {
    const query::ExplainNode* unpack =
        FindStage(shard.winning_plan, "BUCKET_UNPACK");
    ASSERT_NE(unpack, nullptr) << "shard " << shard.shard_id;
    // The unpack stage consumes bucket documents its child already
    // counted; its own counters are points_unpacked / buckets_pruned.
    EXPECT_EQ(unpack->docs_examined, 0u);
    ASSERT_EQ(unpack->children.size(), 1u);
    const query::ExplainNode& child = unpack->children[0];
    EXPECT_TRUE(child.stage == "FETCH" || child.stage == "COLLSCAN")
        << child.stage;
    // Buckets the child surfaced either got pruned or unpacked; a pruned
    // bucket contributes no unpacked points, so unpacked points >= docs
    // the stage advanced (every output point came from a decoded bucket).
    EXPECT_LE(unpack->advanced, unpack->points_unpacked);
    EXPECT_LE(unpack->buckets_pruned, child.advanced);
    total_unpacked += unpack->points_unpacked;
    total_returned += shard.stats.n_returned;
  }
  EXPECT_EQ(total_returned, explain.cluster.result.n_returned);
  EXPECT_GE(total_unpacked, total_returned);

  // Stage-tree sum invariant holds with BUCKET_UNPACK in the tree.
  EXPECT_EQ(explain.cluster.SumStageDocsExamined(),
            explain.cluster.result.total_docs_examined);
  EXPECT_EQ(explain.cluster.SumStageKeysExamined(),
            explain.cluster.result.total_keys_examined);
}

// ---------- bucket selection: pruning and coverage ----------

TEST(BucketSelectionTest, CoversOnlyWhenExactAndContained) {
  const int64_t t0 = 1530403200000;
  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(query::MakeCmp(kDateField, query::CmpOp::kGte,
                                     bson::Value::DateTime(t0)));
  conjuncts.push_back(query::MakeCmp(kDateField, query::CmpOp::kLte,
                                     bson::Value::DateTime(t0 + kHourMs)));
  conjuncts.push_back(query::MakeGeoWithinBox(
      kLocationField, geo::Rect{{23.0, 37.0}, {24.0, 38.0}}));
  const query::ExprPtr expr = query::MakeAnd(std::move(conjuncts));
  const storage::BucketSelection sel = query::CompileBucketSelection(expr);
  EXPECT_TRUE(sel.exact);

  storage::BucketMeta inside;
  inside.min_ts = t0 + 1000;
  inside.max_ts = t0 + kHourMs - 1000;
  inside.has_mbr = true;
  inside.mbr = {{23.2, 37.2}, {23.8, 37.8}};
  EXPECT_TRUE(sel.MayContain(inside));
  EXPECT_TRUE(sel.Covers(inside));

  // Time extent pokes out of the bounds: may contain, but not covered.
  storage::BucketMeta straddling = inside;
  straddling.max_ts = t0 + 2 * kHourMs;
  EXPECT_TRUE(sel.MayContain(straddling));
  EXPECT_FALSE(sel.Covers(straddling));

  // MBR partially outside the rect: same.
  storage::BucketMeta overhang = inside;
  overhang.mbr = {{23.5, 37.5}, {24.5, 38.5}};
  EXPECT_TRUE(sel.MayContain(overhang));
  EXPECT_FALSE(sel.Covers(overhang));

  // Disjoint in space: prunable.
  storage::BucketMeta far = inside;
  far.mbr = {{27.0, 40.0}, {28.0, 41.0}};
  EXPECT_FALSE(sel.MayContain(far));

  // No MBR recorded (some point had a non-canonical location): the rect
  // can neither prune nor cover.
  storage::BucketMeta opaque = inside;
  opaque.has_mbr = false;
  EXPECT_TRUE(sel.MayContain(opaque));
  EXPECT_FALSE(sel.Covers(opaque));

  // A residual conjunct stays with the expression: the rest still prunes,
  // but nothing covers.
  const storage::BucketSelection residual = query::CompileBucketSelection(
      query::MakeAnd({expr, query::MakeCmp("speed", query::CmpOp::kGt,
                                           bson::Value::Double(45.0))}));
  EXPECT_FALSE(residual.exact);
  EXPECT_FALSE(residual.MayContain(far));
  EXPECT_FALSE(residual.Covers(inside));

  // A polygon is decided exactly on the columns, so the selection is exact;
  // it prunes by its bounding box but never covers.
  const query::ExprPtr poly_expr = query::MakeGeoWithinPolygon(
      kLocationField,
      geo::Polygon{{{23.0, 37.0}, {24.0, 37.0}, {23.5, 38.0}}});
  const storage::BucketSelection poly_sel =
      query::CompileBucketSelection(poly_expr);
  EXPECT_TRUE(poly_sel.exact);
  EXPECT_TRUE(poly_sel.MayContain(inside));
  EXPECT_FALSE(poly_sel.MayContain(far));
  EXPECT_FALSE(poly_sel.Covers(inside));

  // Every hilbert RangeSet must overlap the bucket's ranges to keep it and
  // contain them to cover it — the second set prunes as well as the first.
  const auto range_set = [&](int64_t lo, int64_t hi) {
    return query::MakeRangeSet(
        kHilbertField,
        {{bson::Value::Int64(lo), bson::Value::Int64(hi)}});
  };
  storage::BucketMeta cells = inside;
  cells.hil_ranges = {{100, 120}, {200, 210}};
  const storage::BucketSelection one_set =
      query::CompileBucketSelection(range_set(90, 300));
  EXPECT_TRUE(one_set.MayContain(cells));
  EXPECT_TRUE(one_set.Covers(cells));
  const storage::BucketSelection two_sets = query::CompileBucketSelection(
      query::MakeAnd({range_set(90, 300), range_set(130, 190)}));
  EXPECT_TRUE(two_sets.exact);
  EXPECT_FALSE(two_sets.MayContain(cells));
  const storage::BucketSelection both_overlap = query::CompileBucketSelection(
      query::MakeAnd({range_set(90, 300), range_set(115, 205)}));
  EXPECT_TRUE(both_overlap.MayContain(cells));
  EXPECT_FALSE(both_overlap.Covers(cells));
}

TEST(BucketQueryTest, DeleteRemovesPointsUnderBucketLayout) {
  const workload::TrajectoryOptions traj;
  const auto store = LoadedStore(ApproachKind::kBslTS, true, 1000);
  const geo::Rect everything{{19.0, 34.0}, {29.0, 42.0}};
  const StQueryResult before =
      store->Query(everything, traj.t_begin_ms, traj.t_end_ms);
  ASSERT_EQ(before.cluster.docs.size(), 1000u);

  // Delete the first half of the time span (bucketed deletes unpack,
  // filter and re-encode partially-hit buckets), then verify survivors.
  const int64_t span = traj.t_end_ms - traj.t_begin_ms;
  const int64_t cut = traj.t_begin_ms + span / 2;
  uint64_t expected_survivors = 0;
  for (const bson::Document& d : before.cluster.docs) {
    if (d.Get("date")->AsDateTime() > cut) ++expected_survivors;
  }
  std::vector<query::ExprPtr> conjuncts;
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kGte,
                                     bson::Value::DateTime(traj.t_begin_ms)));
  conjuncts.push_back(query::MakeCmp("date", query::CmpOp::kLte,
                                     bson::Value::DateTime(cut)));
  ASSERT_TRUE(store->FlushBuckets().ok());
  const Result<uint64_t> removed =
      store->cluster().Delete(query::MakeAnd(std::move(conjuncts)));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1000u - expected_survivors);
  const StQueryResult after =
      store->Query(everything, traj.t_begin_ms, traj.t_end_ms);
  EXPECT_EQ(after.cluster.docs.size(), expected_survivors);
}

// Sums of the chunk table's accounting against what the shards store.
void ExpectChunkAccountingMatchesStorage(const StStore& store) {
  uint64_t chunk_docs = 0, chunk_points = 0;
  const cluster::ChunkManager& chunks = store.cluster().chunks();
  for (size_t i = 0; i < chunks.num_chunks(); ++i) {
    chunk_docs += chunks.chunk(i).docs;
    chunk_points += chunks.chunk(i).points;
  }
  uint64_t stored_docs = 0, stored_points = 0;
  for (const auto& shard : store.cluster().shards()) {
    shard->collection().records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          ++stored_docs;
          const Result<storage::BucketMeta> meta =
              storage::ParseBucketMeta(doc);
          stored_points += meta.ok() ? meta->num_points : 1;
        });
  }
  EXPECT_EQ(chunk_docs, stored_docs);
  EXPECT_EQ(chunk_points, stored_points);
}

TEST(BucketQueryTest, DeleteMatchesRowLayoutAcrossBucketOutcomes) {
  // The bucketed delete has no fuzz oracle: check it against the row
  // layout on a rect + time window that prunes some buckets, removes
  // covered ones whole and re-encodes partly hit ones.
  const workload::TrajectoryOptions traj;
  const int64_t span = 2 * 24 * kHourMs;
  const auto row = LoadedStore(ApproachKind::kBslTS, false, 3000, span);
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 3000, span);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  ExpectChunkAccountingMatchesStorage(*bucket);

  const int64_t t0 = traj.t_begin_ms + span / 5;
  const int64_t t1 = traj.t_begin_ms + span * 3 / 5;
  const geo::Rect west{{19.0, 34.0}, {23.6, 42.0}};

  // The window really exercises all three outcomes on the stored buckets.
  const query::BucketFilter filter(query::MakeAnd(
      {query::MakeRange(kDateField, bson::Value::DateTime(t0),
                        bson::Value::DateTime(t1)),
       query::MakeGeoWithinBox(kLocationField, west)}));
  std::map<query::BucketMatch::Outcome, int> outcomes;
  for (const auto& shard : bucket->cluster().shards()) {
    shard->collection().records().ForEach(
        [&](storage::RecordId, const bson::Document& doc) {
          const Result<storage::BucketMeta> meta =
              storage::ParseBucketMeta(doc);
          ASSERT_TRUE(meta.ok());
          const Result<query::BucketMatch> match = filter.Apply(doc, *meta);
          ASSERT_TRUE(match.ok());
          // A partly hit bucket with no match is left as it is.
          if (match->outcome != query::BucketMatch::Outcome::kPartial ||
              !match->matched.empty()) {
            ++outcomes[match->outcome];
          }
        });
  }
  EXPECT_GT(outcomes[query::BucketMatch::Outcome::kPruned], 0);
  EXPECT_GT(outcomes[query::BucketMatch::Outcome::kCovered], 0);
  EXPECT_GT(outcomes[query::BucketMatch::Outcome::kPartial], 0);

  const uint64_t loaded = row->cluster().total_documents();
  const Result<uint64_t> row_deleted = row->Delete(west, t0, t1);
  const Result<uint64_t> bucket_deleted = bucket->Delete(west, t0, t1);
  ASSERT_TRUE(row_deleted.ok()) << row_deleted.status().ToString();
  ASSERT_TRUE(bucket_deleted.ok()) << bucket_deleted.status().ToString();
  EXPECT_GT(*row_deleted, 0u);
  EXPECT_EQ(*bucket_deleted, *row_deleted);

  const query::ExprPtr all = query::MakeAnd({});
  const cluster::ClusterQueryResult row_left = row->cluster().Query(all);
  const cluster::ClusterQueryResult bucket_left =
      bucket->cluster().Query(all);
  ASSERT_TRUE(bucket_left.status.ok()) << bucket_left.status.ToString();
  EXPECT_EQ(row_left.docs.size() + *row_deleted, loaded);
  EXPECT_EQ(Canon(bucket_left.docs), Canon(row_left.docs));
  ExpectChunkAccountingMatchesStorage(*bucket);
}

// ---------- columnar selection vs full decode ----------

// One trajectory-shaped point with an explicit location value, so tests
// can place points on exact boundaries (or give them odd locations).
bson::Document ParityPoint(int64_t ts, bson::Value location, int i) {
  static bson::ObjectIdGenerator oid_gen(7);
  bson::Document p;
  p.Append("vehicleId", bson::Value::Int32(3));
  p.Append(kLocationField, std::move(location));
  p.Append(kDateField, bson::Value::DateTime(ts));
  p.Append("speed", bson::Value::Double(40.0 + i));
  p.Append("_id", bson::Value::Id(oid_gen.Generate(
                      static_cast<uint32_t>(ts / 1000))));
  return p;
}

bson::Value Loc(double lon, double lat) {
  return bson::Value::MakeDocument(bson::GeoJsonPoint(lon, lat));
}

// Encodes `points` as one bucket, decodes it with the compiled selection
// and applies the unpack stage's rule (selected points as they come, a
// fallback bucket's points through Matches); the result must equal Matches
// on the original points, byte for byte. Returns whether the selection
// applied.
bool ExpectColumnarParity(const std::vector<bson::Document>& points,
                          const query::ExprPtr& expr,
                          const storage::BucketLayout& layout) {
  const Result<bson::Document> bucket = storage::EncodeBucket(points, layout);
  EXPECT_TRUE(bucket.ok()) << bucket.status().ToString();
  if (!bucket.ok()) return false;
  std::vector<std::string> expected;
  for (const bson::Document& p : points) {
    if (expr->Matches(p)) expected.push_back(bson::EncodeBson(p));
  }
  const storage::BucketSelection sel = query::CompileBucketSelection(expr);
  EXPECT_TRUE(sel.exact) << expr->DebugString();
  if (!sel.exact) return false;
  const Result<storage::BucketMeta> meta = storage::ParseBucketMeta(*bucket);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  if (!meta.ok()) return false;
  bool selected = false;
  const Result<std::vector<bson::Document>> got =
      storage::DecodeBucket(*bucket, *meta, &sel, &selected);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!got.ok()) return false;
  if (!selected) {
    EXPECT_EQ(got->size(), points.size()) << "fallback decodes every point";
  }
  std::vector<std::string> actual;
  for (const bson::Document& p : *got) {
    if (selected || expr->Matches(p)) actual.push_back(bson::EncodeBson(p));
  }
  EXPECT_EQ(actual, expected) << expr->DebugString();
  return selected;
}

constexpr int64_t kWindowBase = 1530403200000;  // 6 h aligned

storage::BucketLayout ParityLayout() {
  storage::BucketLayout layout;
  layout.window_ms = 6 * kHourMs;
  return layout;
}

TEST(ColumnarSelectionTest, TimeBoundsAtMinAndMaxTs) {
  const storage::BucketLayout layout = ParityLayout();
  std::vector<bson::Document> points;
  for (int i = 0; i < 10; ++i) {
    points.push_back(
        ParityPoint(kWindowBase + i * 1000, Loc(23.5, 37.5), i));
  }
  const int64_t min_ts = kWindowBase;
  const int64_t max_ts = kWindowBase + 9000;
  for (const query::CmpOp op : {query::CmpOp::kGt, query::CmpOp::kGte,
                         query::CmpOp::kLt, query::CmpOp::kLte,
                         query::CmpOp::kEq}) {
    for (const int64_t v : {min_ts - 1, min_ts, min_ts + 1, max_ts - 1,
                            max_ts, max_ts + 1}) {
      EXPECT_TRUE(ExpectColumnarParity(
          points,
          query::MakeCmp(kDateField, op, bson::Value::DateTime(v)),
          layout));
    }
  }
  // Strict bounds at the ends of the int64 range select nothing.
  EXPECT_TRUE(ExpectColumnarParity(
      points,
      query::MakeCmp(kDateField, query::CmpOp::kGt,
                     bson::Value::DateTime(
                         std::numeric_limits<int64_t>::max())),
      layout));
  EXPECT_TRUE(ExpectColumnarParity(
      points,
      query::MakeCmp(kDateField, query::CmpOp::kLt,
                     bson::Value::DateTime(
                         std::numeric_limits<int64_t>::min())),
      layout));
}

TEST(ColumnarSelectionTest, BoxEdgesAndCorners) {
  const storage::BucketLayout layout = ParityLayout();
  const geo::Rect box{{23.0, 37.0}, {24.0, 38.0}};
  std::vector<bson::Document> points;
  int i = 0;
  for (const double lon : {22.9, 23.0, 23.5, 24.0, 24.1}) {
    for (const double lat : {36.9, 37.0, 37.5, 38.0, 38.1}) {
      points.push_back(
          ParityPoint(kWindowBase + i * 1000, Loc(lon, lat), i));
      ++i;
    }
  }
  EXPECT_TRUE(ExpectColumnarParity(
      points, query::MakeGeoWithinBox(kLocationField, box), layout));
  EXPECT_TRUE(ExpectColumnarParity(
      points, query::MakeGeoIntersectsBox(kLocationField, box),
      layout));
  // A degenerate box at one corner selects exactly that point.
  EXPECT_TRUE(ExpectColumnarParity(
      points,
      query::MakeGeoWithinBox(kLocationField,
                              geo::Rect{{24.0, 38.0}, {24.0, 38.0}}),
      layout));
}

TEST(ColumnarSelectionTest, PolygonVerticesAndEdges) {
  const storage::BucketLayout layout = ParityLayout();
  const geo::Polygon tri{{{23.0, 37.0}, {24.0, 37.0}, {23.5, 38.0}}};
  const std::vector<std::pair<double, double>> probes = {
      {23.0, 37.0},   {24.0, 37.0},  {23.5, 38.0},   // vertices
      {23.5, 37.0},   {23.25, 37.5}, {23.75, 37.5},  // on edges
      {23.5, 37.5},   {23.5, 36.99}, {23.0, 37.5},   // inside / outside
      {24.0, 37.001}, {23.5, 38.001}};
  std::vector<bson::Document> points;
  for (size_t i = 0; i < probes.size(); ++i) {
    points.push_back(ParityPoint(kWindowBase + i * 1000,
                                 Loc(probes[i].first, probes[i].second),
                                 static_cast<int>(i)));
  }
  EXPECT_TRUE(ExpectColumnarParity(
      points, query::MakeGeoWithinPolygon(kLocationField, tri),
      layout));
}

TEST(ColumnarSelectionTest, HilbertRangeSetEndpoints) {
  const storage::BucketLayout layout = ParityLayout();
  std::vector<bson::Document> points;
  int i = 0;
  for (const int64_t h : {9, 10, 11, 19, 20, 21, 29, 30, 31, 39, 40, 50, 51}) {
    bson::Document p =
        ParityPoint(kWindowBase + i * 1000, Loc(23.5, 37.5), i);
    p.Append(kHilbertField, bson::Value::Int64(h));
    points.push_back(std::move(p));
    ++i;
  }
  const auto range = [](int64_t lo, int64_t hi) {
    return query::RangeSetExpr::Range{bson::Value::Int64(lo),
                                      bson::Value::Int64(hi)};
  };
  const query::ExprPtr rs = query::MakeRangeSet(
      kHilbertField, {range(10, 20), range(30, 30), range(40, 50)});
  EXPECT_TRUE(ExpectColumnarParity(points, rs, layout));
  // Every leaf kind in one conjunction, nested $and included.
  const query::ExprPtr all = query::MakeAnd(
      {rs,
       query::MakeRange(kDateField,
                        bson::Value::DateTime(kWindowBase + 1000),
                        bson::Value::DateTime(kWindowBase + 11000)),
       query::MakeGeoWithinBox(kLocationField,
                               geo::Rect{{23.5, 37.5}, {24.0, 38.0}}),
       query::MakeGeoWithinPolygon(
           kLocationField,
           geo::Polygon{{{23.0, 37.0}, {24.0, 37.0}, {23.5, 38.0}}})});
  EXPECT_TRUE(ExpectColumnarParity(points, all, layout));
}

TEST(ColumnarSelectionTest, BucketsWithoutANeededColumnFallBack) {
  const storage::BucketLayout layout = ParityLayout();
  const query::ExprPtr box = query::MakeGeoWithinBox(
      kLocationField, geo::Rect{{23.0, 37.0}, {24.0, 38.0}});
  std::vector<bson::Document> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back(ParityPoint(kWindowBase + i * 1000,
                                 Loc(22.8 + i * 0.2, 37.5), i));
  }
  // Int32 coordinates: a valid GeoJSON point for Matches, but not the
  // canonical shape the lon/lat columns hold — the bucket has no lon
  // column and a spatial selection must fall back.
  std::vector<bson::Document> odd = points;
  bson::Document int_point;
  int_point.Append("type", bson::Value::String("Point"));
  int_point.Append("coordinates",
                   bson::Value::MakeArray(
                       {bson::Value::Int32(23), bson::Value::Int32(37)}));
  odd[3].Set(kLocationField,
             bson::Value::MakeDocument(std::move(int_point)));
  EXPECT_FALSE(ExpectColumnarParity(odd, box, layout));
  // A time-only selection needs no location column.
  EXPECT_TRUE(ExpectColumnarParity(
      odd,
      query::MakeCmp(kDateField, query::CmpOp::kGte,
                     bson::Value::DateTime(kWindowBase + 4000)),
      layout));

  // Mixed-schema residuals ("res" per-point BSON): selection applies and
  // unselected residuals are skipped without parsing.
  std::vector<bson::Document> mixed = points;
  mixed[2].Append("note", bson::Value::String("stopped"));
  mixed[5].Append("tags", bson::Value::MakeArray({bson::Value::Int32(1)}));
  // A hilbert value that is not Int64 leaves the bucket without a hil
  // column: a RangeSet selection falls back, a spatial one does not.
  for (bson::Document& p : mixed) {
    p.Append(kHilbertField, bson::Value::Int64(100));
  }
  mixed[6].Set(kHilbertField, bson::Value::Int32(100));
  {
    const Result<bson::Document> b = storage::EncodeBucket(mixed, layout);
    ASSERT_TRUE(b.ok());
    const bson::Document& data =
        b->Get(storage::kBucketDataField)->AsDocument();
    ASSERT_NE(data.Get("res"), nullptr);
    ASSERT_EQ(data.Get("hil"), nullptr);
  }
  EXPECT_TRUE(ExpectColumnarParity(mixed, box, layout));
  const query::ExprPtr rs = query::MakeRangeSet(
      kHilbertField,
      {{bson::Value::Int64(100), bson::Value::Int64(100)}});
  EXPECT_FALSE(ExpectColumnarParity(mixed, query::MakeAnd({box, rs}),
                                    layout));
}

TEST(ColumnarSelectionTest, RepeatedFieldNamesFollowTheFirstOccurrence) {
  const storage::BucketLayout layout = ParityLayout();
  const query::ExprPtr box = query::MakeGeoWithinBox(
      kLocationField, geo::Rect{{23.0, 37.0}, {24.0, 38.0}});
  std::vector<bson::Document> points;
  for (int i = 0; i < 6; ++i) {
    bson::Document p = ParityPoint(kWindowBase + i * 1000,
                                   Loc(23.1 + i * 0.1, 37.5), i);
    p.Append(kHilbertField, bson::Value::Int64(100));
    points.push_back(std::move(p));
  }
  // Matches reads the first "location": a non-canonical point outside the
  // box. The canonical one after it, inside the box, must not reach the
  // lon/lat columns, or the selection would test it instead.
  std::vector<bson::Document> locs = points;
  bson::Document int_point;
  int_point.Append("type", bson::Value::String("Point"));
  int_point.Append("coordinates",
                   bson::Value::MakeArray(
                       {bson::Value::Int32(25), bson::Value::Int32(39)}));
  locs[2].Set(kLocationField,
              bson::Value::MakeDocument(std::move(int_point)));
  locs[2].Append(kLocationField, Loc(23.5, 37.5));
  EXPECT_FALSE(ExpectColumnarParity(locs, box, layout));
  // The same for the hilbert column: the first value is an Int32 outside
  // the range set, the second an Int64 inside it.
  std::vector<bson::Document> hils = points;
  hils[4].Set(kHilbertField, bson::Value::Int32(5));
  hils[4].Append(kHilbertField, bson::Value::Int64(100));
  const query::ExprPtr rs = query::MakeRangeSet(
      kHilbertField,
      {{bson::Value::Int64(100), bson::Value::Int64(100)}});
  EXPECT_FALSE(ExpectColumnarParity(hils, rs, layout));
  // A repeated canonical location: the first one is extracted, as Matches
  // reads it, and the selection still applies.
  std::vector<bson::Document> twice = points;
  twice[1].Append(kLocationField, Loc(25.0, 39.0));
  twice[3].Set(kLocationField, Loc(25.0, 39.0));
  twice[3].Append(kLocationField, Loc(23.5, 37.5));
  EXPECT_TRUE(ExpectColumnarParity(twice, box, layout));
}

TEST(ColumnarSelectionTest, OnlyConjunctionsOfColumnLeavesCompile) {
  const query::ExprPtr time = query::MakeCmp(
      kDateField, query::CmpOp::kGte, bson::Value::DateTime(0));
  const query::ExprPtr box = query::MakeGeoWithinBox(
      kLocationField, geo::Rect{{23.0, 37.0}, {24.0, 38.0}});
  EXPECT_TRUE(query::CompileBucketSelection(query::MakeAnd({time, box})).exact);
  // A null expression matches everything: an empty, exact selection.
  EXPECT_TRUE(query::CompileBucketSelection(nullptr).exact);
  const std::vector<query::ExprPtr> rejected = {
      // A residual field.
      query::MakeAnd({time, query::MakeCmp("speed", query::CmpOp::kGt,
                                           bson::Value::Double(45.0))}),
      query::MakeIn("vehicleId", {bson::Value::Int32(3)}),
      query::MakeOr({time, box}),
      // A time comparison against a non-date value.
      query::MakeCmp(kDateField, query::CmpOp::kGte,
                     bson::Value::Int64(0)),
      // A hilbert RangeSet with non-Int64 bounds.
      query::MakeRangeSet(kHilbertField,
                          {{bson::Value::Int32(1), bson::Value::Int32(2)}}),
  };
  for (const query::ExprPtr& e : rejected) {
    EXPECT_FALSE(query::CompileBucketSelection(e).exact)
        << e->DebugString();
  }
}

TEST(ColumnarSelectionTest, NoSurvivorLeavesIdsAndResidualsUndecoded) {
  const storage::BucketLayout layout = ParityLayout();
  std::vector<bson::Document> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back(ParityPoint(kWindowBase + i * 1000,
                                 Loc(23.0 + i * 0.1, 37.0 + i * 0.1), i));
  }
  Result<bson::Document> bucket = storage::EncodeBucket(points, layout);
  ASSERT_TRUE(bucket.ok());
  // Garble every column the selection does not read.
  bson::Document data = bucket->Get(storage::kBucketDataField)->AsDocument();
  for (const char* col : {"pos", "ids", "cols"}) {
    ASSERT_NE(data.Get(col), nullptr) << col;
    data.Set(col, bson::Value::String("garbage"));
  }
  bucket->Set(storage::kBucketDataField,
              bson::Value::MakeDocument(std::move(data)));
  // Off-diagonal corner of the MBR: no point survives the columns.
  storage::BucketSelection none;
  none.rects.push_back(geo::Rect{{23.5, 37.0}, {23.7, 37.2}});
  const Result<storage::BucketMeta> meta = storage::ParseBucketMeta(*bucket);
  ASSERT_TRUE(meta.ok());
  bool selected = false;
  const Result<std::vector<bson::Document>> empty =
      storage::DecodeBucket(*bucket, *meta, &none, &selected);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(selected);
  EXPECT_TRUE(empty->empty());
  // One survivor forces the garbled columns to decode.
  storage::BucketSelection one;
  one.rects.push_back(geo::Rect{{22.95, 36.95}, {23.05, 37.05}});
  EXPECT_FALSE(storage::DecodeBucket(*bucket, *meta, &one).ok());
}

// A stored bucket whose points span more than one timestamp.
struct StoredBucket {
  cluster::Shard* shard = nullptr;
  storage::RecordId rid = storage::kInvalidRecordId;
  bson::Document doc;
  storage::BucketMeta meta;
};
StoredBucket FindSpreadBucket(const StStore& store) {
  StoredBucket found;
  for (const auto& shard : store.cluster().shards()) {
    shard->collection().records().ForEach(
        [&](storage::RecordId rid, const bson::Document& doc) {
          if (found.shard != nullptr || !storage::IsBucketDocument(doc)) {
            return;
          }
          const Result<storage::BucketMeta> m = storage::ParseBucketMeta(doc);
          if (!m.ok() || m->max_ts - m->min_ts < 2) return;
          found = {shard.get(), rid, doc, *m};
        });
    if (found.shard != nullptr) break;
  }
  EXPECT_NE(found.shard, nullptr) << "no bucket spans two timestamps";
  return found;
}

TEST(BucketQueryTest, EmptySelectionsMaterializeNothing) {
  // A query that reaches buckets (no metadata pruning) but matches few or
  // no points: every point is unpacked, only the matches materialized.
  const auto bucket =
      LoadedStore(ApproachKind::kBslTS, true, 2000, 2 * 24 * kHourMs);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t unpacked0 =
      registry.GetCounter("bucket.points_unpacked").value();
  const uint64_t materialized0 =
      registry.GetCounter("bucket.points_materialized").value();
  // A 1 ms sliver just after a bucket's first point: the bucket survives
  // its metadata check, but the columns select (almost) nothing.
  const StoredBucket target = FindSpreadBucket(*bucket);
  ASSERT_NE(target.shard, nullptr);
  const int64_t t = target.meta.min_ts + 1;
  const geo::Rect greece{{19.0, 34.0}, {29.0, 42.0}};
  const StQueryResult none = bucket->Query(greece, t, t);
  ASSERT_TRUE(none.cluster.status.ok());
  const StExplain explain = bucket->Explain(greece, t, t);
  uint64_t unpacked = 0, materialized = 0;
  for (const cluster::ShardExplain& shard : explain.cluster.shards) {
    if (const query::ExplainNode* unpack =
            FindStage(shard.winning_plan, "BUCKET_UNPACK")) {
      unpacked += unpack->points_unpacked;
      materialized += unpack->points_materialized;
    }
  }
  EXPECT_EQ(materialized, none.cluster.docs.size());
  ASSERT_GT(unpacked, 0u);
  EXPECT_LT(materialized, unpacked);
  EXPECT_EQ(registry.GetCounter("bucket.points_materialized").value() -
                materialized0,
            2 * none.cluster.docs.size());
  EXPECT_GE(registry.GetCounter("bucket.points_unpacked").value() - unpacked0,
            2 * unpacked);
  EXPECT_NE(explain.ToJson().find("\"pointsMaterialized\": "),
            std::string::npos);
  EXPECT_NE(bucket->cluster().ServerStatus().find("points_materialized"),
            std::string::npos);
}

TEST(BucketQueryTest, ResidualAndDisjunctivePredicatesMatchRowLayout) {
  // Shapes that do not compile to a column selection take the full-decode
  // path and still answer like the row layout.
  const workload::TrajectoryOptions traj;
  const auto row = LoadedStore(ApproachKind::kBslTS, false, 1500);
  const auto bucket = LoadedStore(ApproachKind::kBslTS, true, 1500);
  ASSERT_TRUE(bucket->FlushBuckets().ok());
  const int64_t mid = traj.t_begin_ms + (traj.t_end_ms - traj.t_begin_ms) / 2;
  const query::ExprPtr window =
      query::MakeRange("date", bson::Value::DateTime(traj.t_begin_ms),
                       bson::Value::DateTime(mid));
  const std::vector<query::ExprPtr> queries = {
      query::MakeAnd({window, query::MakeIn("vehicleId",
                                            {bson::Value::Int32(3),
                                             bson::Value::Int32(7)})}),
      query::MakeOr(
          {query::MakeGeoWithinBox("location",
                                   geo::Rect{{23.0, 37.5}, {24.4, 38.5}}),
           query::MakeCmp("date", query::CmpOp::kGte,
                          bson::Value::DateTime(mid))}),
      // Nothing here widens to a bucket-level bound, so the planner gets
      // no bounds expression at all.
      query::MakeGeoWithinBox("location",
                              geo::Rect{{23.0, 37.5}, {24.4, 38.5}}),
  };
  for (const query::ExprPtr& q : queries) {
    const cluster::ClusterQueryResult r = row->cluster().Query(q);
    const cluster::ClusterQueryResult b = bucket->cluster().Query(q);
    ASSERT_TRUE(r.status.ok());
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_FALSE(r.docs.empty()) << q->DebugString();
    EXPECT_EQ(Canon(b.docs), Canon(r.docs)) << q->DebugString();
  }
}

// ---------- failures surface ----------

// Replaces one stored bucket (with at least two distinct timestamps) by a
// copy whose ts column is truncated; returns its metadata.
storage::BucketMeta CorruptOneBucketTs(const StStore& store) {
  StoredBucket target = FindSpreadBucket(store);
  if (target.shard == nullptr) return {};
  bson::Document data =
      target.doc.Get(storage::kBucketDataField)->AsDocument();
  const std::string ts = data.Get("ts")->AsString();
  data.Set("ts", bson::Value::String(ts.substr(0, ts.size() / 2)));
  target.doc.Set(storage::kBucketDataField,
                 bson::Value::MakeDocument(std::move(data)));
  EXPECT_TRUE(target.shard->Remove(target.rid).ok());
  EXPECT_TRUE(target.shard->Insert(std::move(target.doc)).ok());
  return target.meta;
}

TEST(BucketQueryTest, CorruptBucketFailsTheRead) {
  const auto store =
      LoadedStore(ApproachKind::kBslTS, true, 2000, 2 * 24 * kHourMs);
  ASSERT_TRUE(store->FlushBuckets().ok());
  const storage::BucketMeta meta = CorruptOneBucketTs(*store);
  ASSERT_TRUE(meta.has_mbr);
  // Reaches the bucket without covering it (the window starts one ms in),
  // so the unpack stage must decode it.
  const int64_t t0 = meta.min_ts + 1;
  const int64_t t1 = meta.max_ts;

  // Columnar path: rect + time compiles to a column selection.
  const StQueryResult columnar = store->Query(meta.mbr, t0, t1);
  EXPECT_EQ(columnar.cluster.status.code(), StatusCode::kCorruption)
      << columnar.cluster.status.ToString();
  EXPECT_TRUE(columnar.cluster.docs.empty());

  // Fallback path: a residual-field conjunct keeps the full decode.
  const query::ExprPtr residual = query::MakeAnd(
      {query::MakeRange("date", bson::Value::DateTime(t0),
                        bson::Value::DateTime(t1)),
       query::MakeCmp("vehicleId", query::CmpOp::kGte,
                      bson::Value::Int32(-1))});
  ASSERT_FALSE(query::CompileBucketSelection(residual).exact);
  const cluster::ClusterQueryResult full = store->cluster().Query(residual);
  EXPECT_EQ(full.status.code(), StatusCode::kCorruption)
      << full.status.ToString();
  EXPECT_TRUE(full.docs.empty());
}

TEST(BucketQueryTest, KnnSurfacesRingProbeFailures) {
  const workload::TrajectoryOptions traj;
  const int64_t t0 = traj.t_begin_ms;
  const int64_t t1 = t0 + 24 * kHourMs;
  const geo::Point athens{23.7, 37.98};
  FailPoint* fp = FailPointRegistry::Instance().Find("shardGetMore");
  ASSERT_NE(fp, nullptr);
  for (const bool bucketed : {false, true}) {
    SCOPED_TRACE(bucketed ? "bucket" : "row");
    const auto store = LoadedStore(ApproachKind::kBslTS, bucketed, 1500);
    st::KnnOptions kopts;
    kopts.k = 5;
    const st::KnnResult clean = st::KnnQuery(*store, athens, t0, t1, kopts);
    ASSERT_TRUE(clean.status.ok());
    ASSERT_EQ(clean.neighbors.size(), 5u);

    FailPoint::Config config;
    config.error_code = StatusCode::kInternal;
    config.error_message = "shard host died";
    fp->Enable(config);
    const st::KnnResult failed = st::KnnQuery(*store, athens, t0, t1, kopts);
    fp->Disable();
    EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
    EXPECT_TRUE(failed.neighbors.empty());
    EXPECT_EQ(failed.queries_issued, 1);

    // One failed getMore: on the row store it kills the first ring probe;
    // on the bucket store it lands on the metadata scan that seeds the
    // first radius, which then seeds nothing and the search stays exact.
    config.mode = FailPoint::Mode::kTimes;
    config.count = 1;
    fp->Enable(config);
    const st::KnnResult once = st::KnnQuery(*store, athens, t0, t1, kopts);
    fp->Disable();
    if (bucketed) {
      ASSERT_TRUE(once.status.ok()) << once.status.ToString();
      ASSERT_EQ(once.neighbors.size(), clean.neighbors.size());
      for (size_t i = 0; i < once.neighbors.size(); ++i) {
        EXPECT_EQ(once.neighbors[i].distance_m, clean.neighbors[i].distance_m);
      }
    } else {
      EXPECT_EQ(once.status.code(), StatusCode::kInternal);
    }
  }
}

}  // namespace
}  // namespace stix::st
