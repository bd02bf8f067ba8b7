// The benchmark's workloads. See ../METRICS.md for what each measures and
// why it was chosen.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"
#include "util/result.h"

namespace perfbench {

/// analyst_mix's offered load: Poisson arrivals per second. Set from the
/// measured capacity of the seed commit (see ../METRICS.md).
inline constexpr double kAnalystRatePerS = 300.0;
/// Latency limit of analyst_mix's interactive requests, from the due send
/// time; it is also their deadline.
inline constexpr int64_t kInteractiveLimitUs = 50'000;

/// Four served mobile sessions (2x Phone3G, 2x TabletWifi) replaying seeded
/// traces on a 256-leaf catalog; closed loop.
util::Result<RunResult> RunMobileBrowse(const Args& args);
/// core::GenerateWorkload's default mix through a 2-shard router on a
/// 512-leaf catalog; open loop of Poisson arrivals, at most 4 in flight.
util::Result<RunResult> RunAnalystMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
