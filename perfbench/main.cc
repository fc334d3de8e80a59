// STIX wall-clock benchmark program. One process runs one workload once:
//
//   stix_perfbench --workload hil-row-read --seed 1 --seconds 20 --trace 0
//
// and prints one JSON line with the op counts, the set-up time samples and
// the metrics of the requested mode (end-to-end with --trace 0, per-layer
// with --trace 1). perfbench/run.py builds this binary and wraps it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: stix_perfbench --workload "
               "hil-row-read|bslts-bucket-read|bslts-durable-traffic "
               "--seed N --seconds S --trace 0|1 [--setup-only] "
               "[--offered-rate OPS] [--work-dir DIR] [--spans-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--offered-rate") {
      options.offered_rate = std::atof(value().c_str());
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) Usage();

  perfbench::RunResult result;
  if (options.workload == "hil-row-read") {
    result = perfbench::RunReadWorkload(options, stix::st::ApproachKind::kHil,
                                        false);
  } else if (options.workload == "bslts-bucket-read") {
    result = perfbench::RunReadWorkload(
        options, stix::st::ApproachKind::kBslTS, true);
  } else if (options.workload == "bslts-durable-traffic") {
    if (options.offered_rate <= 0) Usage();
    result = perfbench::RunTrafficWorkload(options);
  } else {
    Usage();
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
