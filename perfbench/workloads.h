#ifndef STIX_PERFBENCH_WORKLOADS_H_
#define STIX_PERFBENCH_WORKLOADS_H_

#include "harness.h"
#include "st/approach.h"

namespace perfbench {

/// hil-row-read / bslts-bucket-read: bulk-load the trajectory set, then a
/// closed loop of range, polygon and kNN reads from a Zipf-popular pool,
/// every answer checked against a brute-force oracle.
RunResult RunReadWorkload(const Options& options,
                          stix::st::ApproachKind approach, bool bucketed);

/// bslts-durable-traffic: the traffic plan on a durable bslTS row store,
/// open loop then closed loop, then close + Recover, with the parity
/// oracle after each.
RunResult RunTrafficWorkload(const Options& options);

}  // namespace perfbench

#endif  // STIX_PERFBENCH_WORKLOADS_H_
