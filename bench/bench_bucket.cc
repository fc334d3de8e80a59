// Row vs bucketed collection layout (DESIGN.md §5g): the same load measured
// under both layouts, per approach, over the R (trajectory) set:
//
//   - storage footprint: record-store resident bytes and index resident
//     bytes, separately, plus the size reduction the bucket codec buys
//     (Simple8b delta-of-delta columns + LZ'd payload residuals). The
//     headline ratio is raw point BSON vs what the bucket layout keeps
//     resident — the "what you would store vs what you do store" figure
//     MongoDB quotes for time-series collections; the block-compressed
//     row store is also printed as the resident-vs-resident comparison.
//   - cold full-scan rect+window query over each shard's checkpoint file
//     (see MeasureColdScan): both layouts read, CRC-check, decompress and
//     parse their whole image; the bucket layout parses ~points/bucket fewer documents,
//     prunes on bucket metadata before touching any column, and answers
//     survivors columnar-first (ts/lon/lat only). Match counts must agree
//     between layouts — a built-in differential check.
//   - p50/p95 modeled latency over the small query set (warm, selective)
//
// The --json file (committed as BENCH_bucket.json) is the perf-trajectory
// record the tentpole's acceptance numbers live in: size_reduction >= 5x,
// cold-scan speedup >= 2x.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"

namespace stix::bench {
namespace {

constexpr st::ApproachKind kApproaches[] = {st::ApproachKind::kBslTS,
                                            st::ApproachKind::kHil};

struct LayoutRun {
  PerfSummary summary;
  uint64_t logical_bytes = 0;  ///< Uncompressed BSON of the stored docs.
  uint64_t stored_docs = 0;    ///< Points (row) or buckets (bucket).
};

LayoutRun RunLayout(st::ApproachKind kind, bool bucket,
                    const BenchConfig& config) {
  BenchConfig c = config;
  c.bucket = bucket;
  const auto store = BuildLoadedStore(kind, Dataset::kR, c);
  const DatasetInfo info = InfoFor(Dataset::kR, config);

  LayoutRun run;
  run.summary.label = std::string(st::ApproachName(kind)) + "/R/" +
                      (bucket ? "bucket" : "row");
  run.summary.dataset_docs = config.r_docs;

  const storage::CollectionStats stats = store->cluster().ComputeDataStats();
  run.logical_bytes = stats.logical_bytes;
  run.stored_docs = stats.num_documents;
  run.summary.record_store_bytes = stats.compressed_bytes;
  for (const auto& [name, bytes] : store->cluster().ComputeIndexSizes()) {
    run.summary.index_bytes += bytes;
  }

  MeasureColdScan(*store, info, &run.summary);

  std::vector<double> latencies;
  for (const workload::StQuerySpec& spec :
       workload::MakeQuerySet(false, info.t_begin_ms, info.t_end_ms)) {
    latencies.push_back(MeasureQuery(*store, spec, c).avg_millis);
  }
  run.summary.p50_millis = Percentile(latencies, 50.0);
  run.summary.p95_millis = Percentile(latencies, 95.0);
  return run;
}

int Main(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromArgs(argc, argv);
  printf("== bench_bucket ==\n");
  printf("row vs bucketed collection layout (DESIGN.md 5g)\n");
  printf("scale: R=%" PRIu64 " docs, %d shards\n", config.r_docs,
         config.num_shards);

  std::vector<PerfSummary> summaries;
  bool targets_met = true;
  for (const st::ApproachKind kind : kApproaches) {
    LayoutRun row = RunLayout(kind, /*bucket=*/false, config);
    LayoutRun bucket = RunLayout(kind, /*bucket=*/true, config);
    // The headline ratio: what the row layout would occupy, against what
    // each layout actually keeps resident.
    row.summary.compression_ratio =
        static_cast<double>(row.logical_bytes) /
        static_cast<double>(row.summary.record_store_bytes);
    bucket.summary.compression_ratio =
        static_cast<double>(row.logical_bytes) /
        static_cast<double>(bucket.summary.record_store_bytes);

    // The 5x gate: raw point BSON against the bucket layout's resident
    // bytes (== bucket.summary.compression_ratio). The row store's own
    // block compression is reported alongside as the resident ratio.
    const double size_reduction = bucket.summary.compression_ratio;
    const double resident_reduction =
        static_cast<double>(row.summary.record_store_bytes) /
        static_cast<double>(bucket.summary.record_store_bytes);
    const double scan_speedup =
        row.summary.cold_scan_millis / bucket.summary.cold_scan_millis;

    printf("\n[%s] row layout:    %" PRIu64
           " stored docs, record-store=%s (logical %s), indexes=%s\n",
           st::ApproachName(kind), row.stored_docs,
           HumanBytes(row.summary.record_store_bytes).c_str(),
           HumanBytes(row.logical_bytes).c_str(),
           HumanBytes(row.summary.index_bytes).c_str());
    printf("[%s] bucket layout: %" PRIu64
           " stored docs, record-store=%s (logical %s), indexes=%s\n",
           st::ApproachName(kind), bucket.stored_docs,
           HumanBytes(bucket.summary.record_store_bytes).c_str(),
           HumanBytes(bucket.logical_bytes).c_str(),
           HumanBytes(bucket.summary.index_bytes).c_str());
    printf("[%s] size reduction: %.2fx vs raw point BSON "
           "(row's own block compression: %.2fx resident)\n",
           st::ApproachName(kind), size_reduction, resident_reduction);
    printf("[%s] cold image scan: row %.1f ms (%.0f pts/s) vs bucket %.1f "
           "ms (%.0f pts/s) -> %.2fx, %" PRIu64 " matches\n",
           st::ApproachName(kind), row.summary.cold_scan_millis,
           row.summary.docs_per_sec_scanned, bucket.summary.cold_scan_millis,
           bucket.summary.docs_per_sec_scanned, scan_speedup,
           bucket.summary.cold_scan_matches);
    if (row.summary.cold_scan_matches != bucket.summary.cold_scan_matches) {
      printf("[%s] !! layouts disagree on the scan result: row %" PRIu64
             " vs bucket %" PRIu64 "\n",
             st::ApproachName(kind), row.summary.cold_scan_matches,
             bucket.summary.cold_scan_matches);
      targets_met = false;
    }
    printf("[%s] small queries:  row p50=%.3f ms p95=%.3f ms | bucket "
           "p50=%.3f ms p95=%.3f ms\n",
           st::ApproachName(kind), row.summary.p50_millis,
           row.summary.p95_millis, bucket.summary.p50_millis,
           bucket.summary.p95_millis);
    if (size_reduction < 5.0) {
      printf("[%s] !! size reduction below the 5x target\n",
             st::ApproachName(kind));
      targets_met = false;
    }
    if (scan_speedup < 2.0) {
      printf("[%s] !! cold-scan speedup below the 2x target\n",
             st::ApproachName(kind));
      targets_met = false;
    }
    summaries.push_back(row.summary);
    summaries.push_back(bucket.summary);
  }

  if (!config.json_path.empty() &&
      !WritePerfJson(config.json_path, "bench_bucket", config, summaries)) {
    return 1;
  }
  printf("\nbench_bucket: targets %s\n", targets_met ? "met" : "MISSED");
  return 0;
}

}  // namespace
}  // namespace stix::bench

int main(int argc, char** argv) { return stix::bench::Main(argc, argv); }
