#include "harness.h"

#include <algorithm>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/metrics.h"
#include "common/percentile.h"
#include "st/knn.h"

namespace perfbench {
namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Sums stage self times (stage time minus its children's) by stage name.
void AddSelfTimes(const stix::query::ExplainNode& node,
                  std::map<std::string, double>* self_ms,
                  uint64_t* points_unpacked, uint64_t* buckets_pruned,
                  uint64_t* buckets_loaded) {
  double children_ms = 0;
  for (const stix::query::ExplainNode& child : node.children) {
    children_ms += std::max(0.0, child.time_millis);
    AddSelfTimes(child, self_ms, points_unpacked, buckets_pruned,
                 buckets_loaded);
  }
  (*self_ms)[node.stage] += std::max(0.0, node.time_millis - children_ms);
  if (node.stage == "BUCKET_UNPACK") {
    *points_unpacked += node.points_unpacked;
    *buckets_pruned += node.buckets_pruned;
    *buckets_loaded += node.TotalDocsExamined();
  }
}

}  // namespace

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << entries_[i].name << "\": {\"value\": "
        << JsonNumber(entries_[i].value) << ", \"unit\": \""
        << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string RunResult::ToJson() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"oracle_mismatches\": " << oracle_mismatches
      << ", \"setup_samples_s\": [";
  for (size_t i = 0; i < setup_samples_s.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonNumber(setup_samples_s[i]);
  }
  out << "], \"sample_counts\": {";
  for (auto it = sample_counts.begin(); it != sample_counts.end(); ++it) {
    out << (it == sample_counts.begin() ? "" : ", ") << "\"" << it->first
        << "\": " << it->second;
  }
  out << "}, \"invalid\": \"" << invalid << "\", \"metrics\": "
      << metrics.ToJson() << "}";
  return out.str();
}

void Die(const char* what, const stix::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

double Percentile(std::vector<double> values, double p) {
  return stix::PercentileOf(std::move(values), p);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t PointHash(int64_t id, int64_t t_ms) {
  // splitmix64 finalizer over the (id, time) pair.
  uint64_t z = static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL ^
               static_cast<uint64_t>(t_ms);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kStOpen: return "st.open";
    case Layer::kClusterGetMore: return "cluster.getmore";
    case Layer::kStKnn: return "st.knn";
    case Layer::kStInsert: return "st.insert";
    case Layer::kStDelete: return "st.delete";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanTotals::Add(const std::vector<Span>& spans) {
  // A thread runs one op at a time and a root span is recorded when its op
  // ends, so each op's children directly precede its root in the log.
  double children_ms = 0;
  size_t first_child = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = NsToMs(s.end_ns - s.begin_ns);
    if (s.layer != Layer::kOp) {
      layer_ms[static_cast<int>(s.layer)] += ms;
      ++layer_calls[static_cast<int>(s.layer)];
      children_ms += ms;
      continue;
    }
    for (size_t j = first_child; j < i; ++j) {
      if (spans[j].op_id != s.op_id || spans[j].begin_ns < s.begin_ns ||
          spans[j].end_ns > s.end_ns) {
        ++unnested;
        break;
      }
    }
    root_ms += ms;
    root_self_ms += ms - children_ms;
    ++ops[static_cast<int>(s.op_class)];
    children_ms = 0;
    first_child = i + 1;
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!append) out << "op_id\top_class\tlayer\tbegin_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.op_id << '\t' << stix::workload::TrafficOpClassName(s.op_class)
        << '\t' << LayerName(s.layer) << '\t' << s.begin_ns << '\t'
        << s.end_ns << '\n';
  }
}

RegistrySnapshot RegistrySnapshot::Take() {
  const stix::MetricsRegistry::Snapshot snap =
      stix::MetricsRegistry::Instance().Snap();
  RegistrySnapshot out;
  for (const auto& e : snap.counters) {
    out.counters[e.name] = static_cast<double>(e.counter);
  }
  for (const auto& e : snap.histograms) {
    out.hist_count[e.name] = static_cast<double>(e.histo.count);
    out.hist_sum[e.name] = static_cast<double>(e.histo.sum);
  }
  return out;
}

RegistrySnapshot RegistrySnapshot::Minus(
    const RegistrySnapshot& before) const {
  const auto sub = [](const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
    std::map<std::string, double> d = a;
    for (const auto& [name, v] : b) d[name] -= v;
    return d;
  };
  RegistrySnapshot d;
  d.counters = sub(counters, before.counters);
  d.hist_count = sub(hist_count, before.hist_count);
  d.hist_sum = sub(hist_sum, before.hist_sum);
  return d;
}

void RegistrySnapshot::Accumulate(const RegistrySnapshot& delta) {
  for (const auto& [name, v] : delta.counters) counters[name] += v;
  for (const auto& [name, v] : delta.hist_count) hist_count[name] += v;
  for (const auto& [name, v] : delta.hist_sum) hist_sum[name] += v;
}

double RegistrySnapshot::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RegistrySnapshot::HistCount(const std::string& name) const {
  const auto it = hist_count.find(name);
  return it == hist_count.end() ? 0.0 : it->second;
}

double RegistrySnapshot::HistSum(const std::string& name) const {
  const auto it = hist_sum.find(name);
  return it == hist_sum.end() ? 0.0 : it->second;
}

QueueDepthSampler::QueueDepthSampler()
    : thread_([this] {
        const stix::Gauge& depth =
            stix::MetricsRegistry::Instance().GetGauge("fanout.queue_depth");
        while (!stop_.load(std::memory_order_relaxed)) {
          sum_ += static_cast<double>(depth.value());
          ++samples_;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

double QueueDepthSampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return Ratio(sum_, static_cast<double>(samples_));
}

void LayerStats::Merge(const LayerStats& o) {
  range_reads += o.range_reads;
  knn_reads += o.knn_reads;
  wall_ms += o.wall_ms;
  cover_ms += o.cover_ms;
  cover_hits += o.cover_hits;
  cover_ranges += o.cover_ranges;
  first_result_ms += o.first_result_ms;
  merge_ms += o.merge_ms;
  max_shard_ms += o.max_shard_ms;
  modeled_ms += o.modeled_ms;
  skew += o.skew;
  nodes += o.nodes;
  broadcasts += o.broadcasts;
  bytes_materialized += o.bytes_materialized;
  returned += o.returned;
  keys += o.keys;
  docs += o.docs;
  max_keys += o.max_keys;
  max_docs += o.max_docs;
  knn_probes += o.knn_probes;
  knn_candidates_per_k += o.knn_candidates_per_k;
}

void PhaseResult::Merge(ClientLog* client) {
  samples.insert(samples.end(), std::make_move_iterator(client->samples.begin()),
                 std::make_move_iterator(client->samples.end()));
  spans.insert(spans.end(), client->tracer.spans().begin(),
               client->tracer.spans().end());
  layers.Merge(client->layers);
}

void CountOps(const std::vector<OpSample>& samples, RunResult* result) {
  for (const OpSample& s : samples) {
    ++result->attempted;
    if (!s.ok) ++result->failed;
  }
}

void SetReadLatencyMetrics(const std::vector<OpSample>& samples,
                           RunResult* result) {
  const std::vector<double> reads = Latencies(samples, kReadMask);
  result->metrics.Set("read_p50_ms", Percentile(reads, 50), "ms");
  result->metrics.Set("read_p99_ms", Percentile(reads, 99), "ms");
  result->sample_counts["read"] = reads.size();
  const std::pair<OpClass, const char*> classes[] = {
      {OpClass::kRectQuery, "rect_p50_ms"},
      {OpClass::kPolygonQuery, "polygon_p50_ms"},
      {OpClass::kKnnQuery, "knn_p50_ms"}};
  for (const auto& [op_class, name] : classes) {
    const std::vector<double> ms = Latencies(samples, ClassBit(op_class));
    result->metrics.Set(name, Percentile(ms, 50), "ms");
    result->sample_counts[stix::workload::TrafficOpClassName(op_class)] =
        ms.size();
  }
}

namespace {

// The point's identity: vehicleId on the trajectory set, fid on traffic.
void HashPoint(const stix::bson::Document& doc, OpSample* sample) {
  const stix::bson::Value* id = doc.Get("vehicleId");
  if (id == nullptr) id = doc.Get("fid");
  const stix::bson::Value* date = doc.Get(stix::st::kDateField);
  ++sample->count;
  if (id == nullptr || date == nullptr) return;  // The oracle will reject it.
  sample->hash += PointHash(id->AsInt32(), date->AsDateTime());
}

}  // namespace

bool ExecRange(const ClientCtx& ctx, uint64_t op_id, OpClass op_class,
               const stix::geo::Rect& rect,
               const stix::geo::Polygon* polygon, int64_t t_begin_ms,
               int64_t t_end_ms, OpSample* sample) {
  std::optional<stix::st::StCursor> cursor;
  {
    const SpanScope span(ctx.tracer, op_id, Layer::kStOpen, op_class);
    cursor.emplace(polygon != nullptr
                       ? ctx.store->OpenPolygonQuery(*polygon, t_begin_ms,
                                                     t_end_ms)
                       : ctx.store->OpenQuery(rect, t_begin_ms, t_end_ms));
  }
  for (;;) {
    std::vector<stix::bson::Document> batch;
    {
      const SpanScope span(ctx.tracer, op_id, Layer::kClusterGetMore,
                           op_class);
      batch = cursor->NextBatch();
    }
    if (batch.empty()) break;
    for (const stix::bson::Document& doc : batch) HashPoint(doc, sample);
  }
  const stix::st::StQueryResult summary = cursor->Summary();
  if (ctx.layers != nullptr) {
    LayerStats& l = *ctx.layers;
    const stix::cluster::ClusterQueryResult& c = summary.cluster;
    ++l.range_reads;
    l.cover_ms += summary.translated.cover_millis;
    l.cover_hits += summary.translated.cache_hit ? 1 : 0;
    l.cover_ranges += static_cast<double>(summary.translated.num_ranges);
    l.first_result_ms += std::max(0.0, c.first_result_millis);
    l.merge_ms += c.merge_millis;
    l.max_shard_ms += c.max_shard_millis;
    l.modeled_ms += c.modeled_millis;
    const double mean_shard =
        c.nodes_contacted > 0 ? c.sum_shard_millis / c.nodes_contacted : 0.0;
    l.skew += mean_shard > 0 ? c.max_shard_millis / mean_shard : 1.0;
    l.nodes += c.nodes_contacted;
    l.broadcasts += c.broadcast ? 1 : 0;
    l.bytes_materialized += static_cast<double>(c.bytes_materialized);
    l.returned += static_cast<double>(c.n_returned);
    l.keys += static_cast<double>(c.total_keys_examined);
    l.docs += static_cast<double>(c.total_docs_examined);
    l.max_keys += static_cast<double>(c.max_keys_examined);
    l.max_docs += static_cast<double>(c.max_docs_examined);
  }
  return summary.cluster.status.ok();
}

void ExecKnn(const ClientCtx& ctx, uint64_t op_id, stix::geo::Point center,
             int64_t t_begin_ms, int64_t t_end_ms, uint32_t k,
             OpSample* sample) {
  stix::st::KnnOptions options;
  options.k = k;
  stix::st::KnnResult result;
  {
    const SpanScope span(ctx.tracer, op_id, Layer::kStKnn,
                         OpClass::kKnnQuery);
    result = stix::st::KnnQuery(*ctx.store, center, t_begin_ms, t_end_ms,
                                options);
  }
  sample->knn_distances.reserve(result.neighbors.size());
  for (const stix::st::Neighbor& n : result.neighbors) {
    HashPoint(n.doc, sample);
    sample->knn_distances.push_back(n.distance_m);
  }
  if (ctx.layers != nullptr) {
    ++ctx.layers->knn_reads;
    ctx.layers->knn_probes += result.queries_issued;
    ctx.layers->knn_candidates_per_k +=
        Ratio(static_cast<double>(result.candidates_examined), k);
  }
}

stix::geo::Polygon InscribedHexagon(const stix::geo::Rect& rect) {
  const double cx = (rect.lo.lon + rect.hi.lon) / 2.0;
  const double cy = (rect.lo.lat + rect.hi.lat) / 2.0;
  const double rx = (rect.hi.lon - rect.lo.lon) / 2.0;
  const double ry = (rect.hi.lat - rect.lo.lat) / 2.0;
  std::vector<stix::geo::Point> vertices;
  for (int i = 0; i < 6; ++i) {
    const double theta = static_cast<double>(i) * M_PI / 3.0;
    vertices.push_back({cx + rx * std::cos(theta), cy + ry * std::sin(theta)});
  }
  return stix::geo::Polygon(std::move(vertices));
}

std::vector<double> Latencies(const std::vector<OpSample>& samples,
                              unsigned mask) {
  std::vector<double> out;
  for (const OpSample& s : samples) {
    if ((mask & ClassBit(s.op_class)) != 0) out.push_back(s.latency_ms);
  }
  return out;
}

void SetLayerMetrics(const SpanTotals& spans, const LayerStats& l,
                     const RegistrySnapshot& d, double queue_depth,
                     Metrics* out) {
  const auto layer_ms = [&](Layer layer) {
    return spans.layer_ms[static_cast<int>(layer)];
  };
  const auto calls = [&](Layer layer) {
    return static_cast<double>(spans.layer_calls[static_cast<int>(layer)]);
  };
  double ops = 0;
  for (const uint64_t n : spans.ops) ops += static_cast<double>(n);
  const double range_reads = static_cast<double>(l.range_reads);
  const double reads = range_reads + static_cast<double>(l.knn_reads);
  const double writes =
      static_cast<double>(spans.ops[static_cast<int>(OpClass::kInsert)] +
                          spans.ops[static_cast<int>(OpClass::kUpdate)]);

  // st: translation/covering, kNN search, write calls.
  out->Set("st.open_ms", Ratio(layer_ms(Layer::kStOpen), calls(Layer::kStOpen)),
           "ms");
  out->Set("st.cover_ms", Ratio(l.cover_ms, range_reads), "ms");
  out->Set("st.cover_cache_hit_ratio", Ratio(l.cover_hits, range_reads),
           "ratio");
  out->Set("st.cover_ranges", Ratio(l.cover_ranges, range_reads), "count");
  out->Set("st.knn_ms", Ratio(layer_ms(Layer::kStKnn), calls(Layer::kStKnn)),
           "ms");
  out->Set("st.knn_probes",
           Ratio(l.knn_probes, static_cast<double>(l.knn_reads)), "count");
  out->Set("st.knn_candidates_per_k",
           Ratio(l.knn_candidates_per_k, static_cast<double>(l.knn_reads)),
           "ratio");
  out->Set("st.insert_ms",
           Ratio(layer_ms(Layer::kStInsert), calls(Layer::kStInsert)), "ms");
  out->Set("st.delete_ms",
           Ratio(layer_ms(Layer::kStDelete), calls(Layer::kStDelete)), "ms");

  // cluster: getMore rounds, merge, fan-out, targeting, shard locks.
  out->Set("cluster.getmore_ms",
           Ratio(layer_ms(Layer::kClusterGetMore), range_reads), "ms");
  out->Set("cluster.first_result_ms", Ratio(l.first_result_ms, range_reads),
           "ms");
  out->Set("cluster.merge_ms", Ratio(l.merge_ms, range_reads), "ms");
  out->Set("cluster.bytes_materialized_per_result",
           Ratio(l.bytes_materialized, l.returned), "B");
  out->Set("cluster.max_shard_ms", Ratio(l.max_shard_ms, range_reads), "ms");
  out->Set("cluster.fanout_skew", Ratio(l.skew, range_reads), "ratio");
  out->Set("cluster.fanout_queue_depth", queue_depth, "count");
  out->Set("cluster.fanout_task_us",
           Ratio(d.HistSum("fanout.task_micros"),
                 d.HistCount("fanout.task_micros")),
           "us");
  out->Set("cluster.nodes_per_read", Ratio(l.nodes, range_reads), "count");
  out->Set("cluster.broadcast_frac", Ratio(l.broadcasts, range_reads),
           "ratio");
  out->Set("cluster.shard_lock_wait_ms_per_op",
           Ratio(d.HistSum("shard.lock_wait_micros") / 1000.0, ops), "ms");
  out->Set("cluster.shard_lock_waits_per_op",
           Ratio(d.Counter("shard.lock_waits"), ops), "count");
  out->Set("cluster.migrations", d.Counter("balancer.migrations_committed"),
           "count");
  out->Set("cluster.modeled_over_wall", Ratio(l.modeled_ms, l.wall_ms),
           "ratio");

  // query: the paper's examined-per-result metrics and plan selection.
  out->Set("query.keys_per_result", Ratio(l.keys, l.returned), "ratio");
  out->Set("query.docs_per_result", Ratio(l.docs, l.returned), "ratio");
  out->Set("query.max_keys_per_node", Ratio(l.max_keys, range_reads),
           "count");
  out->Set("query.max_docs_per_node", Ratio(l.max_docs, range_reads),
           "count");
  out->Set("query.plans_raced_frac",
           Ratio(d.Counter("planner.plans_raced"),
                 d.Counter("planner.plans_total")),
           "ratio");
  const double cache_hits = d.Counter("plan_cache.hits");
  out->Set("query.plan_cache_hit_ratio",
           Ratio(cache_hits, cache_hits + d.Counter("plan_cache.misses")),
           "ratio");
  out->Set("query.replans", d.Counter("executor.replans"), "count");

  // storage: B-tree and WAL work.
  out->Set("storage.btree_node_reads_per_read",
           Ratio(d.Counter("btree.node_reads"), reads), "count");
  out->Set("storage.btree_splits", d.Counter("btree.splits"), "count");
  out->Set("storage.wal_bytes_per_write",
           Ratio(d.Counter("wal.bytes_written"), writes), "B");
  out->Set("storage.wal_syncs_per_write",
           Ratio(d.Counter("wal.syncs"), writes), "count");

  // harness: span accounting. op_ms = sum of child layer time per op +
  // root self time per op.
  out->Set("harness.op_ms", Ratio(spans.root_ms, ops), "ms");
  out->Set("harness.root_self_frac",
           Ratio(spans.root_self_ms, spans.root_ms), "ratio");
}

void SetExplainMetrics(const stix::st::StStore& store,
                       const std::vector<ReadShapeRef>& sample,
                       double budget_s, Metrics* out) {
  std::map<std::string, double> self_ms;
  uint64_t points_unpacked = 0, buckets_pruned = 0, buckets_loaded = 0;
  uint64_t returned = 0, explained = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (const ReadShapeRef& q : sample) {
    if (explained > 0 && NowNs() > deadline) break;
    const stix::st::StExplain ex =
        store.Explain(q.rect, q.t_begin_ms, q.t_end_ms);
    for (const stix::cluster::ShardExplain& shard : ex.cluster.shards) {
      AddSelfTimes(shard.winning_plan, &self_ms, &points_unpacked,
                   &buckets_pruned, &buckets_loaded);
    }
    returned += ex.cluster.result.n_returned;
    ++explained;
  }
  const double n = static_cast<double>(explained);
  out->Set("query.explained_reads", n, "count");
  out->Set("query.ixscan_self_ms", Ratio(self_ms["IXSCAN"], n), "ms");
  out->Set("query.fetch_self_ms", Ratio(self_ms["FETCH"], n), "ms");
  out->Set("query.bucket_unpack_self_ms", Ratio(self_ms["BUCKET_UNPACK"], n),
           "ms");
  out->Set("query.points_unpacked_per_result",
           Ratio(static_cast<double>(points_unpacked),
                 static_cast<double>(returned)),
           "ratio");
  out->Set("query.buckets_pruned_frac",
           Ratio(static_cast<double>(buckets_pruned),
                 static_cast<double>(buckets_loaded)),
           "ratio");
}

double SetStorageMetrics(const stix::st::StStore& store, uint64_t points,
                         Metrics* out) {
  const stix::storage::CollectionStats data =
      store.cluster().ComputeDataStats();
  uint64_t index_bytes = 0;
  for (const auto& [name, bytes] : store.cluster().ComputeIndexSizes()) {
    index_bytes += bytes;
  }
  const double p = static_cast<double>(points);
  if (out != nullptr) {
    out->Set("storage.record_bytes_per_point",
             Ratio(static_cast<double>(data.compressed_bytes), p), "B");
    out->Set("storage.index_bytes_per_point",
             Ratio(static_cast<double>(index_bytes), p), "B");
    out->Set("storage.compression_ratio",
             Ratio(static_cast<double>(data.logical_bytes),
                   static_cast<double>(data.compressed_bytes)),
             "ratio");
  }
  return Ratio(static_cast<double>(data.compressed_bytes + index_bytes), p);
}

}  // namespace perfbench
