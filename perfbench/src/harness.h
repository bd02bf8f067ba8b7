// Shared pieces of the workloads: timed set-up, the naive-planner
// oracle, statistics, the metric tables, and the per-layer probes that the
// traced run adds. Every probe times a public call of one layer from the
// outside (see spans.h).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "inputs.h"
#include "mobile/device.h"
#include "mobile/trace.h"
#include "query/planner.h"
#include "server/server.h"
#include "shard/router.h"
#include "util/clock.h"
#include "util/result.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// analyst_mix's offered load in requests per second; 0 means the
  /// recorded rate (kAnalystRatePerS). Set it only to measure capacity.
  double rate_per_s = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricSet = std::map<std::string, Metric>;

/// What one workload run reports.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed + shed + cancelled/past deadline + wrong
  int64_t wrong = 0;   // results that differ from the oracle
  MetricSet end_to_end;
  MetricSet layer;     // filled only by traced runs
};

/// End-to-end metric names, in BENCHMARK.json order, with units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Per-layer metric names, in BENCHMARK.json order, with units. Every
/// traced run reports all of them; a layer a workload does not exercise
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

double PeakRssMb();

/// Share of the machine's CPU time the host took from this guest ("steal"
/// in /proc/stat) between two readings, in percent. Disturbed runs on a
/// shared host show here; 0 where /proc/stat is unavailable.
struct CpuTimes {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealPct(const CpuTimes& before, const CpuTimes& after);

/// Samples /proc/stat every 50 ms on a thread of its own while it lives, so
/// a run can tell which stretches of its window the host disturbed.
class HostMonitor {
 public:
  HostMonitor();
  ~HostMonitor();  // stops and joins the sampling thread
  HostMonitor(const HostMonitor&) = delete;
  HostMonitor& operator=(const HostMonitor&) = delete;

  /// Host steal over [a_ns, b_ns), from the latest samples at or before
  /// each end.
  double StealPct(int64_t a_ns, int64_t b_ns) const;

 private:
  CpuTimes At(int64_t t_ns) const;  // caller holds mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                                  // guarded by mu_
  std::vector<std::pair<int64_t, CpuTimes>> samples_;  // guarded by mu_
  std::thread thread_;  // declared last: starts after the members it uses
};

/// A measured window cut into fixed slices, each marked calm when the host
/// took at most kCalmStealPct of the machine's CPU time during it. On a
/// shared host a neighbour's burst can halve this guest's speed for seconds;
/// figures taken over the calm slices measure the program rather than the
/// neighbours. When fewer than a quarter of the slices are calm, the calmest
/// quarter counts.
class CalmSlices {
 public:
  static constexpr double kCalmStealPct = 3.0;

  CalmSlices(const HostMonitor& monitor, int64_t start_ns, int64_t end_ns,
             int64_t slice_ns);

  /// Whether a sample completed at `t_ns` counts.
  bool Keep(int64_t t_ns) const;
  /// Share of the window's slices that are calm.
  double calm_share() const { return calm_share_; }
  /// Median over the counted slices of operations completed per second;
  /// `events` are (completion time, operations) pairs.
  double MedianRate(
      const std::vector<std::pair<int64_t, int64_t>>& events) const;
  /// The values of (completion time, value) samples that count.
  std::vector<double> Kept(
      const std::vector<std::pair<int64_t, double>>& samples) const;

 private:
  int64_t start_ns_;
  int64_t slice_ns_;
  std::vector<bool> kept_;  // per slice
  double calm_share_ = 0.0;
};

/// A built catalog plus its serving side. The simulated clock times the
/// build's source integration; servers and routers run on the real clock.
struct Deployment {
  std::unique_ptr<util::SimulatedClock> clock;
  std::unique_ptr<core::DrugTree> dt;
  std::unique_ptr<server::DrugTreeServer> server;
  std::unique_ptr<shard::ShardRouter> router;
};
using ServeFn = std::function<util::Status(Deployment*)>;

/// Builds the catalog and its serving side `reps` times; keeps the last
/// deployment and stores the shortest wall time of Build + `serve` in
/// `setup_s` (the least disturbed repetition on a shared host).
util::Result<Deployment> TimedSetup(const Scale& scale, uint64_t seed,
                                    int reps, const ServeFn& serve,
                                    double* setup_s);

/// The correctness reference: a private planner over the same catalog with
/// PlannerOptions::Naive() and no caches.
class Oracle {
 public:
  explicit Oracle(query::Catalog* catalog) : planner_(catalog) {}
  util::Result<query::QueryResult> Expected(const std::string& sql);

 private:
  query::Planner planner_;
};

/// Row-for-row equality (columns, row count, every value). `why` gets the
/// first difference.
bool SameRows(const query::QueryResult& want, const query::QueryResult& got,
              std::string* why);

/// For a statement whose ORDER BY key (`key_column`) can tie, SQL leaves
/// the order of tied rows, and which tied rows a LIMIT keeps, unspecified.
/// Equal up to ties: the same columns, row count and key sequence, and the
/// same rows within each run of equal keys, except for the last run when
/// the result filled the LIMIT.
bool SameRowsUpToTies(const query::QueryResult& want,
                      const query::QueryResult& got,
                      const std::string& key_column, size_t limit,
                      std::string* why);

/// The first column of `sql`'s result, as strings.
util::Result<std::vector<std::string>> ReadColumn(core::DrugTree* dt,
                                                  const std::string& sql);

/// The serving class each query kind is sent as.
server::QueryClass ClassOf(core::QueryKind kind);

// Per-layer probes (traced runs only) -----------------------------------

/// Server-side counters summed over one or more servers.
struct ServerTotals {
  query::PlanCache::Stats plan;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t deadline_missed = 0;
};
ServerTotals ReadServerTotals(
    const std::vector<server::DrugTreeServer*>& servers);
/// server.plan_cache.*, server.result_cache.hit_ratio, server.shed_ratio
/// and server.deadline_miss_ratio from the difference of two readings.
void SetServerMetrics(const ServerTotals& before, const ServerTotals& after,
                      MetricSet* layer);

/// Repeats the build's steps through their public functions on the same
/// inputs: Mediator::IntegrateAll, KmerDistanceMatrix, BuildTree and
/// TreeIndex::Build, plus integration request and byte counts.
util::Status ProbeSetupLayers(const Scale& scale, uint64_t seed,
                              MetricSet* layer);

/// Runs each statement through the query layer's public steps on a private
/// planner (parse, normalize, optimize, plan, execute, run) and through
/// `server` (SubmitAsync -> Wait), and sets the query.*, storage.bytes_scanned
/// and server.overhead_us.* metrics.
util::Status ProbeQueryLayers(query::Catalog* catalog,
                              server::DrugTreeServer* server,
                              const std::vector<core::WorkloadQuery>& sample,
                              MetricSet* layer);

/// Replays traces through the mobile layer's public steps (viewport
/// update, ComputeLodCut, BuildFrame, client cache) on `device`.
util::Status ProbeMobileLayers(core::DrugTree* dt,
                               const mobile::DeviceProfile& device,
                               const std::vector<mobile::Action>& trace);

/// Times `dt->BuildEncodedSegments()` once (storage.encode_ms on workloads
/// that do not write).
util::Status ProbeEncode(core::DrugTree* dt);

/// Applies seeded write batch 0 (16 `DrugTree::AddActivity` writes) and
/// re-encodes, timing each call, then submits `replay` to `server` so its
/// plan cache meets the new table versions; the plan-cache entries this
/// drops are server.plan_cache.invalidations. `server` is drained first;
/// the catalog keeps the writes.
util::Status ProbeWrites(core::DrugTree* dt, server::DrugTreeServer* server,
                         uint64_t seed,
                         const std::vector<core::WorkloadQuery>& replay,
                         MetricSet* layer);

/// Sets every span-derived metric (mean duration per call, per-layer self
/// time) from the recorded spans.
void SetSpanMetrics(MetricSet* layer);

void SetMetric(MetricSet* set, const std::string& name, double value);

/// Every per-layer metric at 0, ready for a traced run to fill.
MetricSet NewLayerMetrics();

/// Prints the result JSON as the last line of stdout.
void PrintResult(const RunResult& result, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
