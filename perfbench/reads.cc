// The two read workloads: the same trajectory data and seeded read stream
// on the paper's proposed design (hil, row layout) and on its mirror image
// (bslTS, bucketed layout).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bson/document.h"
#include "workload/query_workload.h"
#include "workload/trajectory_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stix::geo::Point;
using stix::geo::Rect;

constexpr uint64_t kPoints = 250000;
constexpr int kShards = 12;
constexpr int kClients = 4;
constexpr double kZipfS = 0.5;
constexpr uint32_t kKnnK = 10;
constexpr int64_t kHourMs = 3600000;
constexpr int64_t kWindowsMs[4] = {kHourMs, 24 * kHourMs, 7 * 24 * kHourMs,
                                   30 * 24 * kHourMs};

struct DataPoint {
  double lon;
  double lat;
  int64_t t_ms;
  int32_t vehicle;
};

struct LoadedStore {
  std::unique_ptr<stix::st::StStore> store;
  std::vector<DataPoint> points;  // Global time order, as generated.
  double setup_s = 0;
};

// Store build, data generation and bulk load, FinishLoad: the timed set-up.
LoadedStore BuildStore(stix::st::ApproachKind approach, bool bucketed) {
  const int64_t begin = NowNs();
  // The trajectory set is the fixed stand-in for the paper's R data set;
  // the seed picks the read pool and the client streams.
  stix::workload::TrajectoryOptions traj;
  traj.num_records = kPoints;

  stix::st::StStoreOptions options;
  options.approach.kind = approach;
  options.approach.dataset_mbr = stix::workload::TrajectoryGenerator::GreeceMbr();
  options.cluster.num_shards = kShards;
  options.cluster.parallel_fanout = true;
  options.load_clock_begin_ms = traj.t_begin_ms;
  if (bucketed) {
    // The layout bench_bucket measures: ~64 points per (vehicle, window)
    // bucket at this scale, 64 coarse curve cells.
    stix::storage::BucketLayout layout;
    const int64_t span_ms = traj.t_end_ms - traj.t_begin_ms;
    layout.window_ms = std::clamp<int64_t>(
        static_cast<int64_t>(static_cast<double>(span_ms) * 64.0 *
                             traj.num_vehicles / static_cast<double>(kPoints)),
        kHourMs, span_ms);
    layout.hilbert_shift = 20;
    options.bucket = layout;
  }

  LoadedStore out;
  out.store = std::make_unique<stix::st::StStore>(options);
  if (stix::Status s = out.store->Setup(); !s.ok()) Die("setup", s);
  out.points.reserve(kPoints);
  stix::workload::TrajectoryGenerator gen(traj);
  stix::bson::Document doc;
  while (gen.Next(&doc)) {
    DataPoint p{};
    stix::bson::ExtractGeoJsonPoint(*doc.Get(stix::st::kLocationField), &p.lon,
                                    &p.lat);
    p.t_ms = doc.Get(stix::st::kDateField)->AsDateTime();
    p.vehicle = doc.Get("vehicleId")->AsInt32();
    out.points.push_back(p);
    if (stix::Status s = out.store->Insert(std::move(doc)); !s.ok()) {
      Die("insert", s);
    }
  }
  if (stix::Status s = out.store->FinishLoad(); !s.ok()) Die("finish", s);
  out.setup_s = NsToMs(NowNs() - begin) / 1000.0;
  return out;
}

struct ReadShape {
  OpClass op_class;
  Rect rect;
  std::optional<stix::geo::Polygon> polygon;
  Point center;
  int64_t t_begin_ms;
  int64_t t_end_ms;
};

// The read stream is stratified. A stratum is one class, rect size, window
// and shape; each holds kPerStratum shapes, so the pool is larger than the
// covering cache. Clients walk a shuffled cycle of strata whose make-up is
// fixed (Stratum::slots), so every run issues the same mix; within a
// stratum, popularity is Zipf and the centres (sampled data points) are
// random.
struct Stratum {
  OpClass op_class;
  bool big;
  int window;  // Index into kWindowsMs.
  int slots;   // Share of the cycle.
};
constexpr size_t kPerStratum = 640;

std::vector<Stratum> Strata() {
  // Per cycle of 196 reads: 120 rects and 56 hexagons, even over sizes and
  // windows, and 20 kNN reads over the last hour ("the k nearest reports in
  // the past hour"). kNN cost swings most with the window, so one window
  // keeps its median steady.
  std::vector<Stratum> out;
  for (int w = 0; w < 4; ++w) {
    for (bool big : {false, true}) {
      out.push_back({OpClass::kRectQuery, big, w, 15});
      out.push_back({OpClass::kPolygonQuery, big, w, 7});
    }
  }
  out.push_back({OpClass::kKnnQuery, false, 0, 20});
  return out;
}

struct ReadPool {
  std::vector<Stratum> strata;
  std::vector<ReadShape> shapes;  // Stratum s owns [s * kPerStratum, ...).
  std::vector<uint32_t> cycle;    // Stratum of each slot.
};

ReadPool MakePool(const std::vector<DataPoint>& points, uint64_t seed) {
  stix::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 11);
  const Rect small = stix::workload::SmallQueryRect();
  const Rect big = stix::workload::BigQueryRect();
  ReadPool pool;
  pool.strata = Strata();
  for (uint32_t s = 0; s < pool.strata.size(); ++s) {
    const Stratum& st = pool.strata[s];
    pool.cycle.insert(pool.cycle.end(), static_cast<size_t>(st.slots), s);
    for (size_t i = 0; i < kPerStratum; ++i) {
      const DataPoint& p = points[rng.NextBounded(points.size())];
      ReadShape shape{};
      shape.op_class = st.op_class;
      shape.center = {p.lon, p.lat};
      const Rect& base = st.big ? big : small;
      const double hw = base.width() / 2, hh = base.height() / 2;
      shape.rect = {{p.lon - hw, p.lat - hh}, {p.lon + hw, p.lat + hh}};
      if (st.op_class == OpClass::kPolygonQuery) {
        shape.polygon = InscribedHexagon(shape.rect);
      }
      const int64_t window = kWindowsMs[st.window];
      shape.t_begin_ms = p.t_ms - window / 2;
      shape.t_end_ms = shape.t_begin_ms + window;
      pool.shapes.push_back(std::move(shape));
    }
  }
  for (size_t i = pool.cycle.size(); i > 1; --i) {
    std::swap(pool.cycle[i - 1], pool.cycle[rng.NextBounded(i)]);
  }
  return pool;
}

// Closed loop: kClients threads, each issuing its next read as soon as the
// previous one returns, until `seconds` have passed.
PhaseResult RunClosedLoop(const stix::st::StStore& store, const ReadPool& pool,
                          uint64_t seed, double seconds, bool trace) {
  const stix::workload::ZipfSampler zipf(kPerStratum, kZipfS);
  std::vector<ClientLog> clients(kClients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const auto body = [&](int c) {
    ClientLog& me = clients[static_cast<size_t>(c)];
    me.tracer = Tracer(trace);
    const ClientCtx ctx{&store, &me.tracer, trace ? &me.layers : nullptr};
    stix::Rng rng(seed * 1000003 + static_cast<uint64_t>(c));
    const size_t offset = rng.NextBounded(pool.cycle.size());
    for (uint64_t seq = 0; NowNs() < deadline; ++seq) {
      const uint32_t stratum =
          pool.cycle[(offset + seq) % pool.cycle.size()];
      const uint32_t idx = static_cast<uint32_t>(
          stratum * kPerStratum + zipf.Sample(&rng));
      const ReadShape& shape = pool.shapes[idx];
      const uint64_t op_id = (static_cast<uint64_t>(c) << 48) | seq;
      OpSample s;
      s.op_class = shape.op_class;
      s.shape = idx;
      const int64_t begin = NowNs();
      if (shape.op_class == OpClass::kKnnQuery) {
        ExecKnn(ctx, op_id, shape.center, shape.t_begin_ms, shape.t_end_ms,
                kKnnK, &s);
      } else {
        s.ok = ExecRange(ctx, op_id, shape.op_class, shape.rect,
                         shape.polygon ? &*shape.polygon : nullptr,
                         shape.t_begin_ms, shape.t_end_ms, &s);
      }
      const int64_t end = NowNs();
      s.latency_ms = NsToMs(end - begin);
      if (trace) {
        me.tracer.Add(Span{op_id, begin, end, Layer::kOp, shape.op_class});
        if (shape.op_class != OpClass::kKnnQuery) {
          me.layers.wall_ms += s.latency_ms;
        }
      }
      me.samples.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();

  PhaseResult out;
  out.wall_s = NsToMs(NowNs() - start) / 1000.0;
  for (ClientLog& c : clients) out.Merge(&c);
  return out;
}

// Brute-force answer of one pool shape over the generated points.
struct Expected {
  uint64_t count = 0;
  uint64_t hash = 0;
  std::vector<double> knn_distances;
};

Expected BruteForce(const std::vector<DataPoint>& points,
                    const ReadShape& shape) {
  Expected e;
  const auto lo = std::lower_bound(
      points.begin(), points.end(), shape.t_begin_ms,
      [](const DataPoint& p, int64_t t) { return p.t_ms < t; });
  std::vector<std::pair<double, uint64_t>> near;
  for (auto it = lo; it != points.end() && it->t_ms <= shape.t_end_ms; ++it) {
    const Point pt{it->lon, it->lat};
    const uint64_t h = PointHash(it->vehicle, it->t_ms);
    if (shape.op_class == OpClass::kKnnQuery) {
      near.emplace_back(stix::geo::HaversineMeters(shape.center, pt), h);
    } else if (shape.rect.Contains(pt) &&
               (!shape.polygon || shape.polygon->Contains(pt))) {
      ++e.count;
      e.hash += h;
    }
  }
  if (shape.op_class == OpClass::kKnnQuery) {
    const size_t k = std::min<size_t>(kKnnK, near.size());
    std::partial_sort(near.begin(), near.begin() + static_cast<ptrdiff_t>(k),
                      near.end());
    for (size_t i = 0; i < k; ++i) e.knn_distances.push_back(near[i].first);
    e.count = k;
  }
  return e;
}

bool Matches(const Expected& e, const OpSample& s) {
  if (s.op_class != OpClass::kKnnQuery) {
    return s.count == e.count && s.hash == e.hash;
  }
  // Ties at the k-th distance may pick different points; compare distances.
  if (s.knn_distances.size() != e.knn_distances.size()) return false;
  for (size_t i = 0; i < e.knn_distances.size(); ++i) {
    const double want = e.knn_distances[i];
    if (std::abs(s.knn_distances[i] - want) > 1e-6 * std::max(1.0, want)) {
      return false;
    }
  }
  return true;
}

// Checks every answer against the brute-force oracle (outside the timed
// window); returns the number of rejected answers.
uint64_t CheckAnswers(const std::vector<DataPoint>& points,
                      const ReadPool& pool,
                      const std::vector<OpSample>& samples) {
  std::vector<uint32_t> shapes;
  for (const OpSample& s : samples) shapes.push_back(s.shape);
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  std::vector<Expected> expected(shapes.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < shapes.size(); i = next++) {
        expected[i] = BruteForce(points, pool.shapes[shapes[i]]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t mismatches = 0;
  for (const OpSample& s : samples) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(shapes.begin(), shapes.end(), s.shape) -
        shapes.begin());
    if (!Matches(expected[i], s)) ++mismatches;
  }
  return mismatches;
}

}  // namespace

RunResult RunReadWorkload(const Options& options,
                          stix::st::ApproachKind approach, bool bucketed) {
  RunResult result;
  LoadedStore loaded = BuildStore(approach, bucketed);
  result.setup_samples_s.push_back(loaded.setup_s);
  if (options.setup_only) return result;

  const ReadPool pool = MakePool(loaded.points, options.seed);
  const stix::st::StStore& store = *loaded.store;
  Metrics& m = result.metrics;
  // Warm-up: fills the covering and plan caches before anything is timed.
  RunClosedLoop(store, pool, options.seed + 1, std::min(2.0, options.seconds / 5),
                false);

  std::vector<OpSample> checked;
  if (!options.trace) {
    PhaseResult run =
        RunClosedLoop(store, pool, options.seed, options.seconds, false);
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    m.Set("ops_per_s", static_cast<double>(run.samples.size()) / run.wall_s,
          "1/s");
    SetReadLatencyMetrics(run.samples, &result);
    checked = std::move(run.samples);
    m.Set("stored_bytes_per_point", SetStorageMetrics(store, kPoints, nullptr),
          "B");
  } else {
    // Untraced then traced halves on the same warm store: the difference in
    // read p50 is the tracing overhead.
    PhaseResult plain =
        RunClosedLoop(store, pool, options.seed, options.seconds / 2, false);
    const RegistrySnapshot before = RegistrySnapshot::Take();
    QueueDepthSampler sampler;
    PhaseResult traced = RunClosedLoop(store, pool, options.seed + 7,
                                       options.seconds / 2, true);
    const double queue_depth = sampler.Stop();
    const RegistrySnapshot delta = RegistrySnapshot::Take().Minus(before);

    SpanTotals spans;
    spans.Add(traced.spans);
    SetLayerMetrics(spans, traced.layers, delta, queue_depth, &m);
    std::vector<ReadShapeRef> sample;
    for (const OpSample& s : traced.samples) {
      const ReadShape& shape = pool.shapes[s.shape];
      if (shape.op_class == OpClass::kRectQuery) {
        sample.push_back({shape.rect, shape.t_begin_ms, shape.t_end_ms});
      }
    }
    SetExplainMetrics(store, sample, options.seconds / 10, &m);
    SetStorageMetrics(store, kPoints, &m);
    // Traffic-only figures (see README.md): no writes, no open loop, no
    // recovery here.
    m.Set("write_p50_ms", 0, "ms");
    m.Set("write_p99_ms", 0, "ms");
    m.Set("open_loop.read_p50_ms", 0, "ms");
    m.Set("open_loop.read_p99_ms", 0, "ms");
    m.Set("recover_s", 0, "s");
    m.Set("harness.gen_lag_ms", 0, "ms");
    const double plain_p50 = Percentile(Latencies(plain.samples, kReadMask), 50);
    const double traced_p50 =
        Percentile(Latencies(traced.samples, kReadMask), 50);
    m.Set("harness.trace_overhead_frac",
          plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 : 0, "ratio");
    if (spans.unnested != 0) result.invalid = "child span outside its op";
    if (!options.spans_out.empty()) {
      WriteSpans(options.spans_out, traced.spans, false);
    }
    checked = std::move(plain.samples);
    checked.insert(checked.end(), std::make_move_iterator(traced.samples.begin()),
                   std::make_move_iterator(traced.samples.end()));
  }
  CountOps(checked, &result);
  result.oracle_mismatches = CheckAnswers(loaded.points, pool, checked);
  return result;
}

}  // namespace perfbench
