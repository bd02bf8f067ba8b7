// The workloads. Each runs its measured window against the public API
// of core / mobile / server / shard, checks a seeded sample of what was
// served against the naive-planner oracle, and fills the end-to-end
// metrics. A traced run (--trace 1) traces the middle half of the window
// (its cost against the untraced quarters on either side is the tracing
// overhead), then runs the per-layer probes.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "mobile/session.h"
#include "spans.h"
#include "util/histogram.h"

namespace perfbench {

namespace {

constexpr int kClients = 4;

// Windows are cut into slices of this length: closed-loop throughput is the
// median over slices, and only slices the host left calm count (CalmSlices).
constexpr int64_t kSliceNs = 500'000'000;

// Set-up repetitions per run; setup_s is the fastest of them.
constexpr int kSetupReps = 7;

void SleepUntilNanos(int64_t t) {
  int64_t now = NowNanos();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Unmeasured lead-in before each run's window: plan and result caches fill,
// lazily built state settles.
constexpr double kWarmupSeconds = 2.0;

/// What RunWindows measured besides the workload's own figures.
struct WindowStats {
  double tracing_overhead_pct = 0.0;  // traced runs only
  double host_steal_pct = 0.0;        // over the measured window
  double calm_share = 0.0;            // of the last window's slices
};

/// Runs `window(seconds, traced)` for the warm-up, calls `reset` to drop
/// what the warm-up recorded, then runs the measured window: untraced runs
/// in one piece; traced runs as an untraced quarter, a traced half and an
/// untraced quarter, so a drift over the run cancels out of the tracing
/// overhead. The overhead compares cost per operation, as `window` returns
/// it.
template <typename WindowFn, typename ResetFn>
WindowStats RunWindows(const Args& args, WindowFn window, ResetFn reset) {
  window(kWarmupSeconds, false);
  reset();
  WindowStats stats;
  CpuTimes before = ReadCpuTimes();
  if (!args.trace) {
    window(args.seconds, false);
  } else {
    double untraced = window(args.seconds / 4.0, false);
    SpanRecorder::Get().set_enabled(true);
    double traced = window(args.seconds / 2.0, true);
    SpanRecorder::Get().set_enabled(false);
    untraced = (untraced + window(args.seconds / 4.0, false)) / 2.0;
    stats.tracing_overhead_pct =
        untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
    SpanRecorder::Get().set_enabled(true);  // for the probes
  }
  stats.host_steal_pct = StealPct(before, ReadCpuTimes());
  return stats;
}

void SetWindowMetrics(const WindowStats& w, MetricSet* layer) {
  SetMetric(layer, "obs.bench_tracing_overhead_pct", w.tracing_overhead_pct);
  SetMetric(layer, "bench.host_steal_pct", w.host_steal_pct);
  SetMetric(layer, "bench.calm_share", w.calm_share);
}

void SetCommon(RunResult* r, double setup_s) {
  SetMetric(&r->end_to_end, "setup_s", setup_s);
  SetMetric(&r->end_to_end, "peak_rss_mb", PeakRssMb());
  SetMetric(&r->end_to_end, "success_ratio",
      r->attempted > 0 ? 1.0 - static_cast<double>(r->failed) /
                                   static_cast<double>(r->attempted)
                       : 0.0);
}

/// An ORDER BY key that can tie, with the statement's LIMIT.
struct TieOrder {
  std::string key_column;
  size_t limit = 0;
};

/// Checks `checks` (statement, served result) pairs against the oracle on
/// up to kClients threads; returns the number of wrong results. With `ties`,
/// results are compared up to the order of tied rows.
int64_t CheckAll(query::Catalog* catalog,
                 const std::vector<std::pair<std::string, query::QueryResult>>&
                     checks,
                 const TieOrder* ties = nullptr) {
  std::atomic<size_t> next{0};
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Oracle oracle(catalog);
      for (size_t i = next++; i < checks.size(); i = next++) {
        util::Result<query::QueryResult> want =
            oracle.Expected(checks[i].first);
        std::string why;
        if (!want.ok()) {
          why = want.status().ToString();
        } else if (ties == nullptr
                       ? SameRows(*want, checks[i].second, &why)
                       : SameRowsUpToTies(*want, checks[i].second,
                                          ties->key_column, ties->limit,
                                          &why)) {
          continue;
        }
        wrong.fetch_add(1);
        std::fprintf(stderr, "WRONG RESULT: %s\n  %s\n",
                     checks[i].first.c_str(), why.c_str());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return wrong.load();
}

/// A seeded sample of `stream`: up to `per_kind` statements of each kind.
std::vector<core::WorkloadQuery> SampleByKind(
    const std::vector<core::WorkloadQuery>& stream, uint64_t seed,
    int per_kind) {
  std::map<core::QueryKind, int> taken;
  std::vector<core::WorkloadQuery> out;
  size_t n = stream.size();
  size_t start = static_cast<size_t>(StreamSeed(seed, "probe", 0) % n);
  for (size_t i = 0; i < n; ++i) {
    const core::WorkloadQuery& q = stream[(start + i) % n];
    if (taken[q.kind] < per_kind) {
      ++taken[q.kind];
      out.push_back(q);
    }
  }
  return out;
}

/// Sampling rule for correctness checks: a seeded 1-in-`every` choice.
bool Sampled(uint64_t seed, const char* tag, uint64_t i, uint64_t every) {
  return StreamSeed(seed, tag, i) % every == 0;
}

// mobile_browse -----------------------------------------------------------

constexpr int kVisitActions = 250;
constexpr int kTraceActions = 640 * kVisitActions;

struct SessionTotals {
  util::Histogram latency_ms;
  int64_t actions = 0;
  int64_t frames = 0;
  int64_t overlay_queries = 0;
  int64_t shed = 0;
  int64_t deadline_missed = 0;
  int64_t run_errors = 0;
  int64_t inconsistent = 0;  // frames + overlay queries != actions
  uint64_t bytes = 0;
  uint64_t nodes_shipped = 0;
  uint64_t nodes_skipped = 0;
};

}  // namespace

util::Result<RunResult> RunMobileBrowse(const Args& args) {
  RunResult result;
  double setup_s = 0.0;
  DRUGTREE_ASSIGN_OR_RETURN(
      Deployment d,
      TimedSetup(kSmallCatalog, args.seed, kSetupReps,
                 [](Deployment* d) {
                   d->server = d->dt->MakeServer(server::ServerOptions(),
                                                 util::RealClock::Instance());
                   return util::Status::OK();
                 },
                 &setup_s));
  core::DrugTree* dt = d.dt.get();

  // Four served sessions, one per client thread, each on its own simulated
  // clock so no session sees another's link time.
  const mobile::DeviceProfile devices[kClients] = {
      mobile::DeviceProfile::Phone3G(), mobile::DeviceProfile::TabletWifi(),
      mobile::DeviceProfile::Phone3G(), mobile::DeviceProfile::TabletWifi()};
  std::vector<std::unique_ptr<util::SimulatedClock>> clocks;
  std::vector<std::unique_ptr<mobile::MobileSession>> sessions;
  std::vector<std::vector<std::vector<mobile::Action>>> visits(kClients);
  for (int s = 0; s < kClients; ++s) {
    clocks.push_back(std::make_unique<util::SimulatedClock>());
    mobile::ServedQueryConfig served;
    served.server = d.server.get();
    served.session_id = static_cast<uint64_t>(s + 1);
    served.overlay_sql = [dt](phylo::NodeId node) {
      return dt->OverlayQuerySql(node);
    };
    sessions.push_back(std::make_unique<mobile::MobileSession>(
        &dt->tree(), &dt->tree_index(), &dt->layout(),
        dt->overlay()->AnnotationVector(), devices[s], clocks.back().get(),
        mobile::SessionOptions(), nullptr, std::move(served)));
    std::vector<mobile::Action> trace =
        MakeMobileTrace(*dt, args.seed, s, kTraceActions);
    for (size_t i = 0; i < trace.size(); i += kVisitActions) {
      visits[s].emplace_back(trace.begin() + i,
                             trace.begin() + std::min(trace.size(),
                                                      i + kVisitActions));
    }
  }

  SessionTotals totals[kClients];
  size_t cursor[kClients] = {};
  double window_s_total = 0.0;
  // Figures of the last window, over its calm slices.
  double actions_per_s = 0.0, served_p50_ms = 0.0, calm_share = 0.0;
  size_t served_n = 0;
  // Server-side latency of the served overlay queries, from the server's
  // own trace records (real clock, same time base as NowNanos). The store
  // is a ring, so session 1's thread collects new records every slice.
  std::vector<std::pair<int64_t, double>> served;  // (end ns, ms)
  uint64_t last_trace_id = 0;
  auto collect_served = [&] {
    for (const obs::TraceRecord& rec : d.server->trace_store()->Snapshot()) {
      if (rec.trace_id > last_trace_id && rec.session_id >= 1 &&
          rec.session_id <= kClients) {
        served.emplace_back(
            rec.end_micros * 1000,
            static_cast<double>(rec.end_micros - rec.begin_micros) / 1e3);
      }
      last_trace_id = std::max(last_trace_id, rec.trace_id);
    }
  };
  HostMonitor monitor;
  ServerTotals server_before, server_after;
  WindowStats window_stats = RunWindows(args, [&](double seconds, bool traced) {
    if (traced) server_before = ReadServerTotals({d.server.get()});
    served.clear();
    int64_t start = NowNanos();
    int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    std::atomic<int64_t> actions{0};
    std::vector<std::pair<int64_t, int64_t>> events[kClients];
    std::vector<std::thread> threads;
    for (int s = 0; s < kClients; ++s) {
      threads.emplace_back([&, s] {
        SessionTotals& t = totals[s];
        int64_t next_collect = start + kSliceNs / 2;
        while (NowNanos() < end) {
          if (s == 0 && NowNanos() >= next_collect) {
            collect_served();
            next_collect += kSliceNs / 2;
          }
          const std::vector<mobile::Action>& visit =
              visits[s][cursor[s]++ % visits[s].size()];
          util::Result<mobile::SessionReport> report = [&] {
            ScopedSpan span("mobile.MobileSession::Run");
            return sessions[s]->Run(visit);
          }();
          t.actions += static_cast<int64_t>(visit.size());
          actions.fetch_add(static_cast<int64_t>(visit.size()));
          events[s].emplace_back(NowNanos(),
                                 static_cast<int64_t>(visit.size()));
          if (!report.ok()) {
            ++t.run_errors;
            continue;
          }
          t.latency_ms.Merge(report->latency_ms);
          t.frames += static_cast<int64_t>(report->frames);
          t.overlay_queries += static_cast<int64_t>(report->overlay_queries);
          t.shed += static_cast<int64_t>(report->overlay_shed);
          t.deadline_missed +=
              static_cast<int64_t>(report->overlay_deadline_missed);
          if (report->frames + report->overlay_queries != visit.size()) {
            ++t.inconsistent;
          }
          t.bytes += report->bytes_shipped;
          t.nodes_shipped += report->nodes_shipped;
          t.nodes_skipped += report->nodes_delta_skipped;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int s = 1; s < kClients; ++s) {
      events[0].insert(events[0].end(), events[s].begin(), events[s].end());
    }
    if (traced) server_after = ReadServerTotals({d.server.get()});
    collect_served();
    CalmSlices calm(monitor, start, end, kSliceNs);
    actions_per_s = calm.MedianRate(events[0]);
    std::vector<double> served_ms = calm.Kept(served);
    served_p50_ms = Median(served_ms);
    served_n = served_ms.size();
    calm_share = calm.calm_share();
    double elapsed = Seconds(NowNanos() - start);
    window_s_total += elapsed;
    return elapsed / static_cast<double>(std::max<int64_t>(1, actions.load()));
  }, [&] {
    for (SessionTotals& t : totals) t = SessionTotals();
    window_s_total = 0.0;
  });
  window_stats.calm_share = calm_share;

  // Correctness: a seeded sample of the traces' overlay foci, served by the
  // same server, against the oracle. Plus SessionReport consistency.
  std::vector<std::pair<std::string, query::QueryResult>> checks;
  for (int s = 0; s < kClients; ++s) {
    for (size_t v = 0; v < std::min(cursor[s], visits[s].size()); ++v) {
      for (size_t a = 0; a < visits[s][v].size(); ++a) {
        const mobile::Action& action = visits[s][v][a];
        if (action.kind != mobile::ActionKind::kOverlayQuery ||
            !Sampled(args.seed, "mobile-check",
                     (static_cast<uint64_t>(s) << 40) | (v << 16) | a, 64) ||
            checks.size() >= 48) {
          continue;
        }
        server::QueryRequest request;
        request.session_id = 100;
        request.sql = dt->OverlayQuerySql(action.node);
        util::Result<query::QueryOutcome> got =
            d.server->Submit(std::move(request));
        if (!got.ok()) return got.status();
        checks.emplace_back(dt->OverlayQuerySql(action.node),
                            std::move(got->result));
      }
    }
  }
  // DrugTree::OverlayQuerySql orders by best affinity alone, which ties
  // (a clade's best is also its best child's), under LIMIT 50.
  const TieOrder overlay_ties{"o.best_affinity_nm", 50};
  result.wrong = CheckAll(dt->catalog(), checks, &overlay_ties);

  // Phones and tablets form two latency clusters of equal weight, so a
  // merged fleet median would flip between them; average the sessions'
  // own percentiles instead.
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  SessionTotals all;
  for (const SessionTotals& t : totals) {
    p50 += t.latency_ms.Percentile(50) / kClients;
    p95 += t.latency_ms.Percentile(95) / kClients;
    p99 += t.latency_ms.Percentile(99) / kClients;
    all.actions += t.actions;
    all.frames += t.frames;
    all.overlay_queries += t.overlay_queries;
    all.shed += t.shed;
    all.deadline_missed += t.deadline_missed;
    all.run_errors += t.run_errors;
    all.inconsistent += t.inconsistent;
    all.bytes += t.bytes;
    all.nodes_shipped += t.nodes_shipped;
    all.nodes_skipped += t.nodes_skipped;
  }
  result.wrong += all.inconsistent;
  result.attempted = all.actions;
  result.failed = all.shed + all.deadline_missed +
                  all.run_errors * kVisitActions + result.wrong;

  MetricSet& e2e = result.end_to_end;
  SetMetric(&e2e, "ops_per_s", actions_per_s);
  SetMetric(&e2e, "p50_ms", p50);
  SetMetric(&e2e, "heavy_p50_ms", served_p50_ms);
  SetCommon(&result, setup_s);
  std::fprintf(stderr,
               "mobile_browse: %lld actions (%lld frames, %lld overlay "
               "queries) in %.2fs, %.0f actions/s, session-mean interaction "
               "p50 %.3f p95 %.3f p99 %.3f ms, served overlay p50 %.3f ms "
               "(n=%zu), "
               "%lld checked / %lld wrong, error_ratio %.6f of %lld, host "
               "steal %.1f%%, calm %.0f%% of slices\n",
               (long long)all.actions, (long long)all.frames,
               (long long)all.overlay_queries, window_s_total, actions_per_s,
               p50, p95, p99, served_p50_ms, served_n, (long long)checks.size(),
               (long long)result.wrong,
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<int64_t>(1, result.attempted)),
               (long long)result.attempted, window_stats.host_steal_pct,
               100.0 * window_stats.calm_share);

  if (args.trace) {
    MetricSet& layer = result.layer;
    SetServerMetrics(server_before, server_after, &layer);
    SetMetric(&layer, "mobile.bytes_per_action",
        static_cast<double>(all.bytes) / static_cast<double>(all.actions));
    SetMetric(&layer, "mobile.delta_skip_ratio",
        static_cast<double>(all.nodes_skipped) /
            static_cast<double>(all.nodes_shipped + all.nodes_skipped));
    SetWindowMetrics(window_stats, &layer);
    for (int s = 0; s < kClients; ++s) {
      for (size_t v = 0; v < 2; ++v) {
        DRUGTREE_RETURN_IF_ERROR(
            ProbeMobileLayers(dt, devices[s], visits[s][v]));
      }
    }
    std::vector<core::WorkloadQuery> sample;
    for (int s = 0; s < kClients && sample.size() < 16; ++s) {
      for (const mobile::Action& action : visits[s][0]) {
        if (action.kind == mobile::ActionKind::kOverlayQuery &&
            sample.size() < 16) {
          sample.push_back({core::QueryKind::kSubtreeOverlay, action.node,
                            dt->OverlayQuerySql(action.node)});
        }
      }
    }
    DRUGTREE_RETURN_IF_ERROR(
        ProbeQueryLayers(dt->catalog(), d.server.get(), sample, &layer));
    DRUGTREE_RETURN_IF_ERROR(
        ProbeWrites(dt, d.server.get(), args.seed, sample, &layer));
    DRUGTREE_RETURN_IF_ERROR(
        ProbeSetupLayers(kSmallCatalog, args.seed, &layer));
  }
  return result;
}

// analyst_mix -------------------------------------------------------------

namespace {

struct AnalystRecord {
  core::QueryKind kind = core::QueryKind::kSubtreeProteins;
  double latency_ms = 0.0;  // from the due send time
  double lag_ms = 0.0;      // send time minus due time
  int64_t done_ns = 0;
  int outcome = 0;          // 0 ok, 1 shed, 2 cancelled/deadline, 3 failed
};

shard::RouterOptions AnalystTopology() {
  shard::RouterOptions options;
  options.num_shards = 2;
  options.replicas_per_shard = 1;
  // Two workers per server: three servers, at most four requests in flight.
  // Analytic work may hold only one of a server's two slots, so an
  // interactive request never waits for two screening joins to finish.
  for (server::ServerOptions* s : {&options.replica, &options.coordinator}) {
    s->worker_threads = 2;
    s->scheduler.total_slots = 2;
    s->scheduler.interactive_slots = 2;
    s->scheduler.analytic_slots = 1;
  }
  // Real-clock hops sleep, so keep them small against the measured work and
  // wide enough that the fabric never gates the servers.
  options.hop.latency_micros = 100;
  options.hop.jitter_fraction = 0.0;
  options.hop.bandwidth_bytes_per_sec = 1'000'000'000;
  options.hop.max_concurrency = 64;
  return options;
}

/// The span name for a routed request, from the route line ShardRouter
/// prepends to the merged outcome's plan ("route: shards=2 scatter (...)").
const char* SubmitSpanName(const query::QueryOutcome& outcome) {
  static const std::pair<const char*, const char*> kSpans[] = {
      {" routed (", "shard.Submit.routed"},
      {" scatter (", "shard.Submit.scatter"},
      {" broadcast (", "shard.Submit.broadcast"},
      {" fallback (", "shard.Submit.fallback"}};
  const std::string& plan = outcome.physical_plan;
  const std::string route = plan.substr(0, plan.find('\n'));
  for (const auto& [kind, span] : kSpans) {
    if (route.find(kind) != std::string::npos) return span;
  }
  return "shard.Submit.unlabelled";
}

/// Times ShardRouter::Route on each statement of `sample`, outside the
/// measured window (Submit makes the same decision internally).
void ProbeRoute(const shard::ShardRouter& router,
                const std::vector<core::WorkloadQuery>& sample) {
  for (const core::WorkloadQuery& q : sample) {
    ScopedSpan span("shard.Route");
    router.Route(q.sql);
  }
}

}  // namespace

util::Result<RunResult> RunAnalystMix(const Args& args) {
  RunResult result;
  double setup_s = 0.0;
  DRUGTREE_ASSIGN_OR_RETURN(
      Deployment d,
      TimedSetup(kMediumCatalog, args.seed, kSetupReps,
                 [](Deployment* d) -> util::Status {
                   DRUGTREE_ASSIGN_OR_RETURN(
                       d->router,
                       d->dt->MakeShardRouter(AnalystTopology(),
                                              util::RealClock::Instance()));
                   return util::Status::OK();
                 },
                 &setup_s));
  core::DrugTree* dt = d.dt.get();
  shard::ShardRouter* router = d.router.get();
  std::vector<server::DrugTreeServer*> servers = {router->coordinator()};
  for (int s = 0; s < router->num_shards(); ++s) {
    servers.push_back(router->replica_server(s, 0));
  }

  const double rate =
      args.rate_per_s > 0.0 ? args.rate_per_s : kAnalystRatePerS;
  const int num_queries =
      static_cast<int>(rate * (kWarmupSeconds + args.seconds * 1.5)) + 100;
  std::vector<TimedQuery> stream =
      MakeAnalystStream(*dt, args.seed, rate, num_queries);

  std::vector<AnalystRecord> records(stream.size());
  std::mutex checks_mu;
  std::vector<std::pair<std::string, query::QueryResult>> checks;
  std::map<core::QueryKind, int> checks_per_kind;
  // Naive screening joins and aggregates take seconds at this size; cap
  // them so the check fits the run.
  auto check_cap = [](core::QueryKind kind) {
    switch (kind) {
      case core::QueryKind::kScreeningJoin: return 3;
      case core::QueryKind::kFamilyAggregate: return 1;
      default: return 12;
    }
  };

  size_t cursor = 0;  // first request of the next window
  size_t measure_from = 0;  // first request after the warm-up
  ServerTotals server_before, server_after;
  shard::ShardRouter::RouteCounters route_before, route_after;
  int64_t subs_before = 0, subs_after = 0;
  std::vector<double> traced_lag;
  std::unique_ptr<CalmSlices> calm;  // of the last window
  HostMonitor monitor;
  auto sub_requests = [&] {
    int64_t n = 0;
    for (int s = 0; s < router->num_shards(); ++s) {
      n += router->shard_counters(s).sub_requests;
    }
    return n;
  };
  double window_s_total = 0.0;
  WindowStats window_stats = RunWindows(args, [&](double seconds, bool traced) {
    if (traced) {
      server_before = ReadServerTotals(servers);
      route_before = router->route_counters();
      subs_before = sub_requests();
    }
    const int64_t offset_us = cursor < stream.size() ? stream[cursor].due_us
                                                      : 0;
    size_t end_index = cursor;
    while (end_index < stream.size() &&
           stream[end_index].due_us - offset_us <
               static_cast<int64_t>(seconds * 1e6)) {
      ++end_index;
    }
    const int64_t start = NowNanos();
    std::atomic<size_t> next{cursor};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < end_index; i = next++) {
          const core::WorkloadQuery& q = stream[i].query;
          int64_t due = start + (stream[i].due_us - offset_us) * 1000;
          SleepUntilNanos(due);
          int64_t sent = NowNanos();
          ScopedSpan request_span("bench.request", i + 1);
          server::QueryRequest request;
          request.session_id = static_cast<uint64_t>(i % 64) + 1;
          request.sql = q.sql;
          request.query_class = ClassOf(q.kind);
          if (request.query_class == server::QueryClass::kInteractive) {
            request.deadline_micros =
                router->clock()->NowMicros() +
                (kInteractiveLimitUs - (sent - due) / 1000);
          }
          util::Result<query::QueryOutcome> out =
              util::Status::Internal("not sent");
          {
            // Labelled by the decision Submit itself made, so the traced half
            // does no routing work the untraced quarters do not.
            ScopedSpan span("shard.Submit.failed");
            out = router->Submit(std::move(request));
            if (traced && out.ok()) span.set_name(SubmitSpanName(*out));
          }
          AnalystRecord& r = records[i];
          r.kind = q.kind;
          r.done_ns = NowNanos();
          r.latency_ms = Millis(r.done_ns - due);
          r.lag_ms = Millis(sent - due);
          if (out.ok()) {
            r.outcome = 0;
            if (Sampled(args.seed, "analyst-check", i, 8)) {
              std::lock_guard<std::mutex> lock(checks_mu);
              if (checks_per_kind[q.kind] < check_cap(q.kind)) {
                ++checks_per_kind[q.kind];
                checks.emplace_back(q.sql, std::move(out->result));
              }
            }
          } else if (out.status().IsResourceExhausted()) {
            r.outcome = 1;
          } else if (out.status().IsCancelled()) {
            r.outcome = 2;
          } else {
            r.outcome = 3;
            std::fprintf(stderr, "request failed: %s: %s\n", q.sql.c_str(),
                         out.status().ToString().c_str());
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double elapsed = Seconds(NowNanos() - start);
    window_s_total += elapsed;
    calm = std::make_unique<CalmSlices>(
        monitor, start, start + static_cast<int64_t>(seconds * 1e9),
        kSliceNs);
    if (traced) {
      server_after = ReadServerTotals(servers);
      route_after = router->route_counters();
      subs_after = sub_requests();
    }
    // The median, not the mean: a few queued requests would swing a mean
    // latency by more than the cost of tracing.
    std::vector<double> latency_ms;
    for (size_t i = cursor; i < end_index; ++i) {
      latency_ms.push_back(records[i].latency_ms);
      if (traced) traced_lag.push_back(records[i].lag_ms);
    }
    cursor = end_index;
    return Median(latency_ms);
  }, [&] {
    measure_from = cursor;
    window_s_total = 0.0;
  });
  window_stats.calm_share = calm->calm_share();
  router->Drain();
  result.wrong = CheckAll(dt->catalog(), checks);

  // Outcomes count every request sent; latencies those completed in calm
  // slices of the window.
  std::vector<double> interactive, analytic, lag;
  int64_t shed = 0, cancelled = 0, failed = 0, completed = 0;
  for (size_t i = measure_from; i < cursor; ++i) {
    const AnalystRecord& r = records[i];
    lag.push_back(r.lag_ms);
    switch (r.outcome) {
      case 0:
        ++completed;
        if (calm->Keep(r.done_ns)) {
          (ClassOf(r.kind) == server::QueryClass::kInteractive ? interactive
                                                                : analytic)
              .push_back(r.latency_ms);
        }
        break;
      case 1: ++shed; break;
      case 2: ++cancelled; break;
      default: ++failed; break;
    }
  }
  result.attempted = static_cast<int64_t>(cursor - measure_from);
  result.failed = shed + cancelled + failed + result.wrong;
  MetricSet& e2e = result.end_to_end;
  SetMetric(&e2e, "ops_per_s", static_cast<double>(completed) / window_s_total);
  SetMetric(&e2e, "p50_ms", Percentile(interactive, 50));
  SetMetric(&e2e, "heavy_p50_ms", Percentile(analytic, 50));
  SetCommon(&result, setup_s);
  std::fprintf(stderr,
               "analyst_mix: %zu requests at %.0f/s offered in %.2fs; "
               "interactive p50 %.3f p95 %.3f p99 %.3f ms (n=%zu), "
               "analytic p50 %.3f p99 %.3f ms "
               "(n=%zu); send lag p50 %.3f p99 %.3f max %.3f ms; "
               "shed %lld, past deadline %lld, failed %lld; %zu checked / "
               "%lld wrong; error_ratio %.6f of %lld; host steal %.1f%%, "
               "calm %.0f%% of slices\n",
               cursor - measure_from, rate, window_s_total,
               Percentile(interactive, 50), Percentile(interactive, 95),
               Percentile(interactive, 99), interactive.size(),
               Percentile(analytic, 50),
               Percentile(analytic, 99), analytic.size(), Percentile(lag, 50),
               Percentile(lag, 99), Percentile(lag, 100), (long long)shed,
               (long long)cancelled, (long long)failed, checks.size(),
               (long long)result.wrong,
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<int64_t>(1, result.attempted)),
               (long long)result.attempted, window_stats.host_steal_pct,
               100.0 * window_stats.calm_share);

  if (args.trace) {
    MetricSet& layer = result.layer;
    SetServerMetrics(server_before, server_after, &layer);
    const shard::ShardRouter::RouteCounters& rc = route_after;
    double merged = static_cast<double>(
        (rc.routed - route_before.routed) +
        (rc.scatter - route_before.scatter) +
        (rc.broadcast - route_before.broadcast));
    double fallback =
        static_cast<double>(rc.fallback - route_before.fallback);
    SetMetric(&layer, "shard.fanout",
        merged > 0 ? static_cast<double>(subs_after - subs_before) / merged
                   : 0.0);
    SetMetric(&layer, "shard.fallback_ratio",
        merged + fallback > 0 ? fallback / (merged + fallback) : 0.0);
    SetMetric(&layer, "bench.send_lag_p99_ms", Percentile(traced_lag, 99));
    SetWindowMetrics(window_stats, &layer);
    std::vector<core::WorkloadQuery> queries;
    for (const TimedQuery& t : stream) queries.push_back(t.query);
    ProbeRoute(*router, SampleByKind(queries, args.seed, 40));
    DRUGTREE_RETURN_IF_ERROR(ProbeQueryLayers(
        dt->catalog(), router->coordinator(),
        SampleByKind(queries, args.seed, 4), &layer));
    DRUGTREE_RETURN_IF_ERROR(ProbeEncode(dt));
    DRUGTREE_RETURN_IF_ERROR(
        ProbeSetupLayers(kMediumCatalog, args.seed, &layer));
  }
  return result;
}

}  // namespace perfbench
