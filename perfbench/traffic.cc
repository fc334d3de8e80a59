// bslts-durable-traffic: the seeded traffic plan (rect/polygon/kNN reads,
// inserts and corrections) on a durable bslTS row store. Phase 1 drives it
// open loop at a fixed offered rate; phase 2 replays it closed loop from the
// same preloaded state; then the store is closed and recovered. The plan's
// parity oracle runs after each.
//
// The benchmark drives the plan with its own loop instead of
// workload::RunTraffic, which cannot host spans and scores every kNN as ok.

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "bson/document.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stix::workload::TrafficOp;
using stix::workload::TrafficPlan;

constexpr int kShards = 8;
constexpr int kClients = 4;
constexpr int kSessions = 1000;
constexpr int kPreloadPerSession = 24;
// The preload is ~2.4 MB: 64 KB chunks give every shard several date
// ranges, so no seed's chunk layout leaves one shard with most of the scans.
constexpr uint64_t kChunkMaxBytes = 64 * 1024;
constexpr int kHotspots = 1024;
constexpr double kZipfS = 0.7;

stix::bson::Document MakeDoc(double lon, double lat, int64_t t_ms,
                             int32_t fid) {
  stix::bson::Document doc;
  doc.Append(stix::st::kLocationField,
             stix::bson::Value::MakeDocument(stix::bson::GeoJsonPoint(lon, lat)));
  doc.Append(stix::st::kDateField, stix::bson::Value::DateTime(t_ms));
  doc.Append("fid", stix::bson::Value::Int32(fid));
  return doc;
}

stix::st::StStoreOptions StoreOptions(const TrafficPlan& plan,
                                      const std::string& dir) {
  stix::st::StStoreOptions options;
  options.approach.kind = stix::st::ApproachKind::kBslTS;
  options.approach.dataset_mbr = plan.config.region;
  options.cluster.num_shards = kShards;
  options.cluster.chunk_max_bytes = kChunkMaxBytes;
  options.cluster.parallel_fanout = true;
  options.cluster.durability.data_dir = dir;
  return options;
}

struct TrafficStore {
  std::unique_ptr<stix::st::StStore> store;
  stix::st::StStoreOptions options;
  double setup_s = 0;
};

// Store build with a fresh WAL directory, preload, FinishLoad: the timed
// set-up.
TrafficStore BuildStore(const TrafficPlan& plan, const std::string& dir) {
  const int64_t begin = NowNs();
  std::filesystem::remove_all(dir);
  TrafficStore out;
  out.options = StoreOptions(plan, dir);
  out.store = std::make_unique<stix::st::StStore>(out.options);
  if (stix::Status s = out.store->Setup(); !s.ok()) Die("setup", s);
  if (stix::Status s = stix::workload::PreloadTraffic(out.store.get(), plan);
      !s.ok()) {
    Die("preload", s);
  }
  if (stix::Status s = out.store->FinishLoad(); !s.ok()) Die("finish", s);
  out.setup_s = NsToMs(NowNs() - begin) / 1000.0;
  return out;
}

// Hands out plan ops so that each session's ops run in plan order, one at a
// time, while different sessions run concurrently (earliest arrival first).
class SessionDispatcher {
 public:
  explicit SessionDispatcher(const TrafficPlan& plan)
      : plan_(plan), session_ops_(plan.sessions.size()),
        next_(plan.sessions.size(), 0) {
    for (uint32_t i = 0; i < plan.ops.size(); ++i) {
      session_ops_[static_cast<size_t>(plan.ops[i].session)].push_back(i);
    }
    for (const std::vector<uint32_t>& ops : session_ops_) {
      if (!ops.empty()) ready_.push(ops.front());
    }
  }

  /// Next runnable op; false once every op has completed.
  bool Take(uint32_t* op) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return completed_ == plan_.ops.size() || !ready_.empty(); });
    if (ready_.empty()) return false;
    *op = ready_.top();
    ready_.pop();
    return true;
  }

  void Done(uint32_t op) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
      const size_t s = static_cast<size_t>(plan_.ops[op].session);
      if (++next_[s] < session_ops_[s].size()) {
        ready_.push(session_ops_[s][next_[s]]);
      }
    }
    cv_.notify_all();
  }

 private:
  const TrafficPlan& plan_;
  std::vector<std::vector<uint32_t>> session_ops_;
  std::vector<size_t> next_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> ready_;
  size_t completed_ = 0;
};

bool ExecOp(stix::st::StStore* store, const ClientCtx& ctx, uint64_t op_id,
            const TrafficOp& op, OpSample* sample) {
  switch (op.op_class) {
    case OpClass::kRectQuery:
      return ExecRange(ctx, op_id, op.op_class, op.rect, nullptr,
                       op.t_begin_ms, op.t_end_ms, sample);
    case OpClass::kPolygonQuery: {
      const stix::geo::Polygon hexagon = InscribedHexagon(op.rect);
      return ExecRange(ctx, op_id, op.op_class, op.rect, &hexagon,
                       op.t_begin_ms, op.t_end_ms, sample);
    }
    case OpClass::kKnnQuery:
      ExecKnn(ctx, op_id,
              {(op.rect.lo.lon + op.rect.hi.lon) / 2.0,
               (op.rect.lo.lat + op.rect.hi.lat) / 2.0},
              op.t_begin_ms, op.t_end_ms, op.k, sample);
      return true;
    case OpClass::kInsert: {
      const SpanScope span(ctx.tracer, op_id, Layer::kStInsert, op.op_class);
      return store->Insert(MakeDoc(op.lon, op.lat, op.doc_t_ms, op.fid)).ok();
    }
    case OpClass::kUpdate: {
      bool ok = false;
      {
        const SpanScope span(ctx.tracer, op_id, Layer::kStDelete, op.op_class);
        const stix::geo::Rect at{{op.del_lon, op.del_lat},
                                 {op.del_lon, op.del_lat}};
        const stix::Result<uint64_t> removed =
            store->Delete(at, op.del_t_ms, op.del_t_ms);
        ok = removed.ok() && *removed == 1;
      }
      const SpanScope span(ctx.tracer, op_id, Layer::kStInsert, op.op_class);
      return store->Insert(MakeDoc(op.lon, op.lat, op.doc_t_ms, op.fid)).ok() &&
             ok;
    }
  }
  return false;
}

// Drives every op of the plan with kClients threads. Open loop: each op is
// dispatched at its scheduled arrival and timed from it, so a stall is
// charged to the ops queued behind it. Closed loop: each op is timed from
// when a client picked it up.
PhaseResult DrivePlan(stix::st::StStore* store, const TrafficPlan& plan,
                      bool open_loop, bool trace) {
  SessionDispatcher dispatcher(plan);
  std::vector<ClientLog> clients(kClients);
  const RegistrySnapshot before = RegistrySnapshot::Take();
  std::optional<QueueDepthSampler> sampler;
  if (trace) sampler.emplace();
  const int64_t start = NowNs();
  const auto body = [&](int c) {
    ClientLog& me = clients[static_cast<size_t>(c)];
    me.tracer = Tracer(trace);
    const ClientCtx ctx{store, &me.tracer, trace ? &me.layers : nullptr};
    uint32_t index = 0;
    while (dispatcher.Take(&index)) {
      const TrafficOp& op = plan.ops[index];
      OpSample s;
      s.op_class = op.op_class;
      int64_t due = NowNs();
      if (open_loop) {
        due = start + static_cast<int64_t>(op.arrival_ms * 1e6);
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      }
      const int64_t begin = NowNs();
      s.start_lag_ms = std::max(0.0, NsToMs(begin - due));
      s.ok = ExecOp(store, ctx, index, op, &s);
      const int64_t end = NowNs();
      s.latency_ms = NsToMs(end - due);
      if (trace) {
        me.tracer.Add(Span{index, begin, end, Layer::kOp, op.op_class});
        if (op.op_class == OpClass::kRectQuery ||
            op.op_class == OpClass::kPolygonQuery) {
          me.layers.wall_ms += NsToMs(end - begin);
        }
      }
      me.samples.push_back(std::move(s));
      dispatcher.Done(index);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();

  PhaseResult out;
  out.wall_s = NsToMs(NowNs() - start) / 1000.0;
  if (sampler) out.queue_depth = sampler->Stop();
  out.delta = RegistrySnapshot::Take().Minus(before);
  for (ClientLog& c : clients) out.Merge(&c);
  return out;
}

double MeanLag(const std::vector<OpSample>& samples) {
  double sum = 0;
  for (const OpSample& s : samples) sum += s.start_lag_ms;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

uint64_t StoredPoints(const TrafficPlan& plan) {
  uint64_t n = 0;
  for (const auto& session : plan.sessions) n += session.live_fids.size();
  return n;
}

}  // namespace

RunResult RunTrafficWorkload(const Options& options) {
  RunResult result;
  stix::workload::TrafficConfig config;
  config.seed = options.seed;
  config.num_sessions = kSessions;
  config.preload_per_session = kPreloadPerSession;
  // Popularity spread over many hotspots and sessions (the generator's
  // defaults are 64 hotspots at Zipf 1.1): the few hottest hotspots would
  // otherwise decide each seed's cost.
  config.num_hotspots = kHotspots;
  config.zipf_s = kZipfS;
  config.arrivals_per_sec = options.offered_rate;
  // Phase 1 lasts three quarters of the run; phase 2 replays the same ops
  // at two to three times the rate.
  config.total_ops =
      static_cast<int>(options.offered_rate * options.seconds * 0.75);
  const TrafficPlan plan = stix::workload::GenerateTrafficPlan(config);
  const std::string dir_a = options.work_dir + "/traffic-a";
  const std::string dir_b = options.work_dir + "/traffic-b";

  if (options.setup_only) {
    result.setup_samples_s.push_back(BuildStore(plan, dir_a).setup_s);
    std::filesystem::remove_all(dir_a);
    return result;
  }

  Metrics& m = result.metrics;
  // Phase 1, untraced in both modes: checked by the parity oracle, and on
  // trace runs the source of the open-loop figures, the generator lag and
  // the tracing-overhead baseline.
  PhaseResult open_plain;
  {
    TrafficStore a = BuildStore(plan, dir_a);
    result.setup_samples_s.push_back(a.setup_s);
    open_plain = DrivePlan(a.store.get(), plan, true, false);
    result.oracle_mismatches +=
        stix::workload::VerifyTrafficParity(*a.store, plan);
    CountOps(open_plain.samples, &result);
  }
  std::filesystem::remove_all(dir_a);

  PhaseResult open_traced;
  if (options.trace) {
    TrafficStore a = BuildStore(plan, dir_a);
    result.setup_samples_s.push_back(a.setup_s);
    open_traced = DrivePlan(a.store.get(), plan, true, true);
    result.oracle_mismatches +=
        stix::workload::VerifyTrafficParity(*a.store, plan);
    CountOps(open_traced.samples, &result);
    a.store.reset();
    std::filesystem::remove_all(dir_a);
  }

  // Phase 2: the same plan closed loop from the same preloaded state.
  TrafficStore b = BuildStore(plan, dir_b);
  result.setup_samples_s.push_back(b.setup_s);
  PhaseResult closed = DrivePlan(b.store.get(), plan, false, options.trace);
  CountOps(closed.samples, &result);
  result.oracle_mismatches +=
      stix::workload::VerifyTrafficParity(*b.store, plan);
  // storage.* are per-layer metrics, kept on trace runs only.
  const double stored_bytes_per_point = SetStorageMetrics(
      *b.store, StoredPoints(plan), options.trace ? &m : nullptr);
  if (options.trace) {
    std::vector<ReadShapeRef> sample;
    for (const TrafficOp& op : plan.ops) {
      if (op.op_class == OpClass::kRectQuery) {
        sample.push_back({op.rect, op.t_begin_ms, op.t_end_ms});
      }
    }
    SetExplainMetrics(*b.store, sample, options.seconds / 10, &m);
  }
  const double peak_rss_mb = PeakRssMb();

  // Close (every commit is already flushed: one commit per sync) and
  // recover, then the parity oracle again.
  b.store.reset();
  const int64_t recover_begin = NowNs();
  stix::Result<std::unique_ptr<stix::st::StStore>> recovered =
      stix::st::StStore::Recover(b.options);
  const double recover_s = NsToMs(NowNs() - recover_begin) / 1000.0;
  if (!recovered.ok()) Die("recover", recovered.status());
  result.oracle_mismatches +=
      stix::workload::VerifyTrafficParity(**recovered, plan);
  recovered->reset();
  std::filesystem::remove_all(dir_b);

  if (!options.trace) {
    // Read latencies come from the closed loop, like the read workloads'.
    // Open-loop latencies doubled whenever the host ran 10-15% slower (the
    // insert convoy lengthens), so they ride with the per-layer metrics.
    m.Set("ops_per_s",
          static_cast<double>(closed.samples.size()) / closed.wall_s, "1/s");
    SetReadLatencyMetrics(closed.samples, &result);
    m.Set("stored_bytes_per_point", stored_bytes_per_point, "B");
    m.Set("peak_rss_mb", peak_rss_mb, "MiB");
    return result;
  }

  // Per-layer metrics over both traced phases.
  SpanTotals spans;
  spans.Add(open_traced.spans);
  spans.Add(closed.spans);
  LayerStats layers = open_traced.layers;
  layers.Merge(closed.layers);
  RegistrySnapshot delta = open_traced.delta;
  delta.Accumulate(closed.delta);
  const double queue_depth =
      (open_traced.queue_depth * open_traced.wall_s +
       closed.queue_depth * closed.wall_s) /
      (open_traced.wall_s + closed.wall_s);
  SetLayerMetrics(spans, layers, delta, queue_depth, &m);
  // Traffic-only end-to-end figures, from the untraced phase 1 and the
  // recovery; they ride with the per-layer metrics (see README.md).
  const std::vector<double> writes = Latencies(open_plain.samples, kWriteMask);
  const std::vector<double> open_reads =
      Latencies(open_plain.samples, kReadMask);
  m.Set("write_p50_ms", Percentile(writes, 50), "ms");
  m.Set("write_p99_ms", Percentile(writes, 99), "ms");
  m.Set("open_loop.read_p50_ms", Percentile(open_reads, 50), "ms");
  m.Set("open_loop.read_p99_ms", Percentile(open_reads, 99), "ms");
  m.Set("recover_s", recover_s, "s");
  m.Set("harness.gen_lag_ms", MeanLag(open_plain.samples), "ms");
  const double plain_p50 =
      Percentile(Latencies(open_plain.samples, kReadMask), 50);
  const double traced_p50 =
      Percentile(Latencies(open_traced.samples, kReadMask), 50);
  m.Set("harness.trace_overhead_frac",
        plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 : 0, "ratio");
  if (spans.unnested != 0) result.invalid = "child span outside its op";
  if (!options.spans_out.empty()) {
    WriteSpans(options.spans_out, open_traced.spans, false);
    WriteSpans(options.spans_out, closed.spans, true);
  }
  return result;
}

}  // namespace perfbench
