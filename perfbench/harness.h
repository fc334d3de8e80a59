#ifndef STIX_PERFBENCH_HARNESS_H_
#define STIX_PERFBENCH_HARNESS_H_

// Shared pieces of the wall-clock benchmark: run options, the metric sink,
// per-op samples, the in-memory span tracer, metrics-registry deltas and the
// client-side execution of each read/write class. Every span is recorded
// here, around a public StStore / KnnQuery / StCursor call; nothing inside
// src/ is instrumented for the benchmark.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "geo/geo.h"
#include "geo/region.h"
#include "st/st_store.h"
#include "workload/traffic.h"

namespace perfbench {

using OpClass = stix::workload::TrafficOpClass;
inline constexpr int kNumOpClasses = stix::workload::kNumTrafficOpClasses;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build and load the store, report its set-up time, and exit.
  bool setup_only = false;
  /// Traffic phase-1 offered rate (ops/s); fixed by the caller, never
  /// derived from a measurement.
  double offered_rate = 0.0;
  /// Scratch directory for WALs and span dumps.
  std::string work_dir = ".";
  /// When non-empty (trace runs), every recorded span is written here.
  std::string spans_out;
};

/// Ordered name -> (value, unit) list; the binary prints it as JSON.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What one benchmark process reports.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_mismatches = 0;
  std::vector<double> setup_samples_s;
  /// Samples behind each latency percentile, by op group.
  std::map<std::string, uint64_t> sample_counts;
  /// Non-empty when a harness self-check failed (the run is then invalid).
  std::string invalid;
  Metrics metrics;

  std::string ToJson() const;
};

/// Prints `what: status` to stderr and exits 1 (set-up cannot continue).
[[noreturn]] void Die(const char* what, const stix::Status& status);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Order-independent fingerprint of one returned point.
uint64_t PointHash(int64_t id, int64_t t_ms);

// --- tracing -------------------------------------------------------------

/// The public calls the benchmark wraps in spans. kOp is each operation's
/// root span; the others are its children.
enum class Layer : uint8_t {
  kOp = 0,
  kStOpen,          ///< StStore::OpenQuery / OpenPolygonQuery.
  kClusterGetMore,  ///< StCursor::NextBatch (one getMore round).
  kStKnn,           ///< st::KnnQuery.
  kStInsert,        ///< StStore::Insert.
  kStDelete,        ///< StStore::Delete.
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  uint64_t op_id;
  int64_t begin_ns;
  int64_t end_ns;
  Layer layer;
  OpClass op_class;
};

/// One client thread's span log, kept in memory until the run ends. A
/// disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Records one child span for its lifetime.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, uint64_t op_id, Layer layer, OpClass op_class)
      : tracer_(tracer),
        op_id_(op_id),
        layer_(layer),
        op_class_(op_class),
        begin_ns_(tracer->enabled() ? NowNs() : 0) {}
  ~SpanScope() {
    if (tracer_->enabled()) {
      tracer_->Add(Span{op_id_, begin_ns_, NowNs(), layer_, op_class_});
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint64_t op_id_;
  Layer layer_;
  OpClass op_class_;
  int64_t begin_ns_;
};

/// Span totals of a traced phase. Child spans nest inside their op's root
/// span, so per op: root = sum of children + root self time.
struct SpanTotals {
  double layer_ms[static_cast<int>(Layer::kCount)] = {};
  uint64_t layer_calls[static_cast<int>(Layer::kCount)] = {};
  double root_ms = 0;
  double root_self_ms = 0;
  uint64_t ops[kNumOpClasses] = {};
  /// Ops whose children were not inside the root span (must stay 0).
  uint64_t unnested = 0;

  void Add(const std::vector<Span>& spans);
};

/// Appends every span as a TSV line (op_id, op class, layer, begin, end).
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                bool append);

// --- registry deltas -----------------------------------------------------

/// Snapshot of the process-wide metrics registry (the data
/// Cluster::ServerStatus serializes); subtracting two gives one phase's
/// counters without set-up or earlier phases leaking in.
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum;

  static RegistrySnapshot Take();
  /// this - before, per name.
  RegistrySnapshot Minus(const RegistrySnapshot& before) const;
  void Accumulate(const RegistrySnapshot& delta);
  double Counter(const std::string& name) const;
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
};

/// Samples the fan-out pool's queue-depth gauge at ~1 kHz while alive.
class QueueDepthSampler {
 public:
  QueueDepthSampler();
  ~QueueDepthSampler() { Stop(); }
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;
  /// Stops sampling (idempotent); returns the mean sampled depth.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  double sum_ = 0;
  uint64_t samples_ = 0;
  std::thread thread_;  // Last: it reads the members above.
};

// --- per-op execution ----------------------------------------------------

/// Per-thread accumulation of what the cursor summaries and kNN results
/// report (traced phases only).
struct LayerStats {
  uint64_t range_reads = 0;
  uint64_t knn_reads = 0;
  double wall_ms = 0;  ///< Range reads' root-span time.
  double cover_ms = 0;
  double cover_hits = 0;
  double cover_ranges = 0;
  double first_result_ms = 0;
  double merge_ms = 0;
  double max_shard_ms = 0;
  double modeled_ms = 0;
  double skew = 0;
  double nodes = 0;
  double broadcasts = 0;
  double bytes_materialized = 0;
  double returned = 0;
  double keys = 0;
  double docs = 0;
  double max_keys = 0;
  double max_docs = 0;
  double knn_probes = 0;
  double knn_candidates_per_k = 0;

  void Merge(const LayerStats& other);
};

/// One finished operation.
struct OpSample {
  OpClass op_class = OpClass::kRectQuery;
  bool ok = true;
  double latency_ms = 0;
  /// Open loop: how late the op started against its schedule.
  double start_lag_ms = 0;
  uint32_t shape = 0;  ///< Read workloads: index into the read pool.
  uint64_t count = 0;  ///< Points returned.
  uint64_t hash = 0;   ///< Sum of PointHash over the returned points.
  std::vector<double> knn_distances;  ///< kNN only, ascending.
};

/// One client thread's log of a measured phase.
struct ClientLog {
  std::vector<OpSample> samples;
  Tracer tracer{false};
  LayerStats layers;
};

/// A measured phase, all clients merged.
struct PhaseResult {
  std::vector<OpSample> samples;
  double wall_s = 0;
  std::vector<Span> spans;
  LayerStats layers;
  double queue_depth = 0;  ///< Traced traffic phases only.
  RegistrySnapshot delta;  ///< Traced traffic phases only.

  /// Moves one client's log into the phase.
  void Merge(ClientLog* client);
};

/// Adds the samples to result->attempted and result->failed.
void CountOps(const std::vector<OpSample>& samples, RunResult* result);

/// The closed-loop read latency metrics (read p50/p99, per-class p50) and
/// their sample counts.
void SetReadLatencyMetrics(const std::vector<OpSample>& samples,
                           RunResult* result);

/// Context one client thread executes ops in.
struct ClientCtx {
  const stix::st::StStore* store;
  Tracer* tracer;
  LayerStats* layers;  ///< Null in untraced phases.
};

/// Rect or polygon read through a streaming cursor, consuming every batch
/// the way a client would. Returns false when the cursor reports an error.
bool ExecRange(const ClientCtx& ctx, uint64_t op_id, OpClass op_class,
               const stix::geo::Rect& rect,
               const stix::geo::Polygon* polygon, int64_t t_begin_ms,
               int64_t t_end_ms, OpSample* sample);

/// kNN read; KnnResult carries no status, so this cannot fail (see
/// perfbench/README.md, "kNN errors are invisible").
void ExecKnn(const ClientCtx& ctx, uint64_t op_id, stix::geo::Point center,
             int64_t t_begin_ms, int64_t t_end_ms, uint32_t k,
             OpSample* sample);

/// Hexagon inscribed in a rect: the polygon read shape.
stix::geo::Polygon InscribedHexagon(const stix::geo::Rect& rect);

/// Latency summary of `samples` for the classes selected by `mask` (bit i =
/// OpClass i): nearest-rank percentiles.
std::vector<double> Latencies(const std::vector<OpSample>& samples,
                              unsigned mask);
inline unsigned ClassBit(OpClass c) { return 1u << static_cast<int>(c); }
inline constexpr unsigned kReadMask = 0b00111;
inline constexpr unsigned kWriteMask = 0b11000;

/// Per-layer metrics shared by every workload, from a traced phase's span
/// totals, merged layer stats and registry delta.
void SetLayerMetrics(const SpanTotals& spans, const LayerStats& layers,
                     const RegistrySnapshot& delta, double queue_depth,
                     Metrics* out);

/// Query-layer stage self times from StStore::Explain on sampled rect
/// reads (run single-threaded, after the traced phase).
struct ReadShapeRef {
  stix::geo::Rect rect;
  int64_t t_begin_ms;
  int64_t t_end_ms;
};
void SetExplainMetrics(const stix::st::StStore& store,
                       const std::vector<ReadShapeRef>& sample,
                       double budget_s, Metrics* out);

/// Storage footprint metrics (record-store and index bytes per point,
/// compression ratio) into `out` when non-null; returns the stored bytes
/// (record store + indexes) per point.
double SetStorageMetrics(const stix::st::StStore& store, uint64_t points,
                         Metrics* out);

}  // namespace perfbench

#endif  // STIX_PERFBENCH_HARNESS_H_
