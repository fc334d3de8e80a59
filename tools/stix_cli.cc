// stix_cli — operate the store from the command line: load CSV data into a
// data directory, then run spatio-temporal queries, inspect plans and sizes
// against it.
//
// Usage:
//   stix_cli load   --csv=FILE [--approach=hil|bslST|bslTS]
//                   [--shards=N] [--zones] --out=DIR
//   stix_cli query  --snap=DIR --rect=lon1,lat1,lon2,lat2
//                   --from=ISO --to=ISO [--limit=N]
//   stix_cli explain --snap=DIR --rect=... --from=... --to=...
//   stix_cli stats  --snap=DIR
//
// `load` builds a durable store in DIR (which must not already hold one)
// and checkpoints it; the other commands reopen DIR with RecoverCluster, so
// they see exactly the sharding, zones, indexes and placement `load` built.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bson/json_writer.h"
#include "common/strings.h"
#include "st/approach.h"
#include "st/st_store.h"
#include "workload/csv_loader.h"

namespace {

using stix::Status;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "true";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  fprintf(stderr,
          "usage: stix_cli <load|query|explain|stats> [--flags]\n"
          "  load    --csv=FILE --out=DIR [--approach=hil] [--shards=12] "
          "[--zones]\n"
          "  query   --snap=DIR --rect=lon1,lat1,lon2,lat2 --from=ISO "
          "--to=ISO [--limit=N]\n"
          "  explain --snap=DIR --rect=... --from=... --to=...\n"
          "  stats   --snap=DIR\n");
  return 2;
}

// The one numeric flag parser: the whole text must be a finite number.
bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// A whole number in [lo, hi].
bool ParseCount(const std::string& text, double lo, double hi, size_t* out) {
  double v = 0;
  if (!ParseNumber(text, &v) || v != std::floor(v) || v < lo || v > hi) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

// Largest --shards a load accepts, and largest --limit (2^53: every whole
// number up to it is exact in a double).
constexpr double kMaxShards = 1024;
constexpr double kMaxLimit = 9007199254740992.0;

bool ParseRect(const std::string& text, stix::geo::Rect* rect) {
  const auto parts = stix::Split(text, ',');
  if (parts.size() != 4) return false;
  double v[4];
  for (size_t i = 0; i < 4; ++i) {
    if (!ParseNumber(parts[i], &v[i])) return false;
  }
  rect->lo = {std::min(v[0], v[2]), std::min(v[1], v[3])};
  rect->hi = {std::max(v[0], v[2]), std::max(v[1], v[3])};
  return true;
}

stix::Result<stix::st::ApproachKind> ParseApproach(const std::string& name) {
  if (name == "hil" || name.empty()) return stix::st::ApproachKind::kHil;
  if (name == "hil*" || name == "hilstar") {
    // hil*'s curve spans the data-set MBR, which the data directory does
    // not record; a later `query` could not rebuild the same hilbertIndex
    // mapping.
    return Status::NotSupported(
        "hil* stores are not queryable from the CLI; use hil");
  }
  if (name == "bslST") return stix::st::ApproachKind::kBslST;
  if (name == "bslTS") return stix::st::ApproachKind::kBslTS;
  return Status::InvalidArgument("unknown approach: " + name);
}

int CmdLoad(const std::map<std::string, std::string>& flags) {
  const auto csv = flags.find("csv");
  const auto out = flags.find("out");
  if (csv == flags.end() || out == flags.end()) return Usage();

  const auto approach_flag = flags.count("approach")
                                 ? flags.at("approach")
                                 : std::string("hil");
  const stix::Result<stix::st::ApproachKind> kind =
      ParseApproach(approach_flag);
  if (!kind.ok()) return Fail(kind.status().ToString());

  stix::st::StStoreOptions options;
  options.approach.kind = *kind;
  options.cluster.durability.data_dir = out->second;
  if (flags.count("shards")) {
    size_t shards = 0;
    if (!ParseCount(flags.at("shards"), 1, kMaxShards, &shards)) {
      return Usage();
    }
    options.cluster.num_shards = static_cast<int>(shards);
  }
  stix::st::StStore store(options);
  if (Status s = store.Setup(); !s.ok()) return Fail(s.ToString());

  const stix::Result<uint64_t> loaded = stix::workload::LoadCsvFile(
      csv->second, stix::workload::CsvSchema{}, &store);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  (void)store.FinishLoad();
  if (flags.count("zones")) {
    if (Status s = store.ConfigureZones(); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  if (Status s = store.Checkpoint(); !s.ok()) return Fail(s.ToString());
  printf("loaded %" PRIu64 " documents (%s, %d shards, %zu chunks%s) -> %s\n",
         *loaded, store.approach().name(), store.cluster().num_shards(),
         store.cluster().chunks().num_chunks(),
         flags.count("zones") ? ", zoned" : "", out->second.c_str());
  return 0;
}

// Reopens a data directory and rebuilds the query expression the same way
// the approach would. The approach kind is inferred from the recovered
// shard key (hilbertIndex -> Hilbert).
struct RestoredStore {
  std::unique_ptr<stix::cluster::Cluster> cluster;
  std::unique_ptr<stix::st::Approach> approach;
};

stix::Result<RestoredStore> Restore(
    const std::map<std::string, std::string>& flags) {
  const auto snap = flags.find("snap");
  if (snap == flags.end()) {
    return Status::InvalidArgument("--snap is required");
  }
  stix::cluster::ClusterOptions options;
  options.durability.data_dir = snap->second;
  stix::Result<std::unique_ptr<stix::cluster::Cluster>> cluster =
      stix::cluster::RecoverCluster(options);
  if (!cluster.ok()) return cluster.status();

  stix::st::ApproachConfig config;
  const auto& paths = (*cluster)->shard_key().paths();
  const bool is_hilbert =
      !paths.empty() && paths.front() == stix::st::kHilbertField;
  config.kind = is_hilbert ? stix::st::ApproachKind::kHil
                           : stix::st::ApproachKind::kBslST;
  RestoredStore out;
  out.cluster = std::move(*cluster);
  out.approach = std::make_unique<stix::st::Approach>(config);
  return out;
}

bool ParseWindow(const std::map<std::string, std::string>& flags,
                 int64_t* t0, int64_t* t1) {
  const auto from = flags.find("from");
  const auto to = flags.find("to");
  return from != flags.end() && to != flags.end() &&
         stix::ParseIsoDate(from->second, t0) &&
         stix::ParseIsoDate(to->second, t1);
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  stix::Result<RestoredStore> store = Restore(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  stix::geo::Rect rect;
  int64_t t0, t1;
  size_t limit = 10;
  if (!flags.count("rect") || !ParseRect(flags.at("rect"), &rect) ||
      !ParseWindow(flags, &t0, &t1) ||
      (flags.count("limit") &&
       !ParseCount(flags.at("limit"), 0, kMaxLimit, &limit))) {
    return Usage();
  }
  const auto translated = store->approach->TranslateQuery(rect, t0, t1);
  const stix::cluster::ClusterQueryResult r =
      store->cluster->Query(translated.expr);
  printf("%zu documents, %d node(s), max keys %s, %.2f ms\n", r.docs.size(),
         r.nodes_contacted,
         stix::WithThousands(static_cast<int64_t>(r.max_keys_examined))
             .c_str(),
         r.modeled_millis);
  for (size_t i = 0; i < r.docs.size() && i < limit; ++i) {
    printf("  %s\n", stix::bson::ToJson(r.docs[i]).c_str());
  }
  if (r.docs.size() > limit) {
    printf("  ... %zu more (use --limit=)\n", r.docs.size() - limit);
  }
  return 0;
}

int CmdExplain(const std::map<std::string, std::string>& flags) {
  stix::Result<RestoredStore> store = Restore(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  stix::geo::Rect rect;
  int64_t t0, t1;
  if (!flags.count("rect") || !ParseRect(flags.at("rect"), &rect) ||
      !ParseWindow(flags, &t0, &t1)) {
    return Usage();
  }
  const auto translated = store->approach->TranslateQuery(rect, t0, t1);
  printf("%s", store->cluster->Explain(translated.expr).c_str());
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  stix::Result<RestoredStore> store = Restore(flags);
  if (!store.ok()) return Fail(store.status().ToString());
  const stix::cluster::Cluster& cluster = *store->cluster;
  printf("shard key: %s\n", cluster.shard_key().DebugString().c_str());
  printf("documents: %s in %zu chunks on %d shards (%zu zones)\n",
         stix::WithThousands(
             static_cast<int64_t>(cluster.total_documents()))
             .c_str(),
         cluster.chunks().num_chunks(), cluster.num_shards(),
         cluster.zones().size());
  const stix::storage::CollectionStats data = cluster.ComputeDataStats();
  printf("data: %s BSON, %s block-compressed\n",
         stix::HumanBytes(data.logical_bytes).c_str(),
         stix::HumanBytes(data.compressed_bytes).c_str());
  for (const auto& [name, bytes] : cluster.ComputeIndexSizes()) {
    printf("index %-28s %s\n", name.c_str(),
           stix::HumanBytes(bytes).c_str());
  }
  for (const auto& shard : cluster.shards()) {
    printf("shard %d: %s docs\n", shard->id(),
           stix::WithThousands(
               static_cast<int64_t>(shard->num_documents()))
               .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "load") return CmdLoad(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "stats") return CmdStats(flags);
  return Usage();
}
