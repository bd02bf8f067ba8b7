#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bio/distance.h"
#include "bio/sequence.h"
#include "integration/activity_source.h"
#include "integration/ligand_source.h"
#include "integration/mediator.h"
#include "integration/network.h"
#include "integration/protein_source.h"
#include "integration/semantic_cache.h"
#include "mobile/client_cache.h"
#include "mobile/lod.h"
#include "mobile/protocol.h"
#include "mobile/session.h"
#include "mobile/viewport.h"
#include "phylo/builder.h"
#include "phylo/tree_index.h"
#include "query/executor.h"
#include "query/logical_plan.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "query/rules.h"
#include "spans.h"

namespace perfbench {

namespace {

constexpr core::QueryKind kKinds[] = {
    core::QueryKind::kSubtreeProteins, core::QueryKind::kSubtreeOverlay,
    core::QueryKind::kScreeningJoin, core::QueryKind::kFamilyAggregate,
    core::QueryKind::kAncestorPath};

const char* const kLayers[] = {"bench", "mobile",  "server",      "shard",
                               "query", "storage", "core",        "integration",
                               "bio",   "phylo"};

// Span names per query kind, built once so the pointers stay valid.
struct KindSpanNames {
  std::vector<std::string> execute, run;
  KindSpanNames() {
    for (core::QueryKind k : kKinds) {
      execute.push_back(std::string("query.ExecutePlan.") +
                        core::QueryKindName(k));
      run.push_back(std::string("query.Run.") + core::QueryKindName(k));
    }
  }
};
const KindSpanNames& SpanNames() {
  static const KindSpanNames* names = new KindSpanNames();
  return *names;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},         {"peak_rss_mb", "MB"},
          {"success_ratio", "ratio"}, {"ops_per_s", "1/s"},
          {"p50_ms", "ms"},
          {"heavy_p50_ms", "ms"}};
  return *metrics;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"mobile.lod_cut_us", "us"},
        {"mobile.frame_encode_us", "us"},
        {"mobile.bytes_per_action", "B"},
        {"mobile.delta_skip_ratio", "ratio"},
        {"server.submit_us", "us"},
        {"server.sojourn_us.interactive", "us"},
        {"server.sojourn_us.analytic", "us"}};
    for (core::QueryKind k : kKinds) {
      m->push_back({std::string("server.overhead_us.") +
                        core::QueryKindName(k),
                    "us"});
    }
    for (const char* name :
         {"server.shed_ratio", "server.deadline_miss_ratio",
          "server.plan_cache.hit_ratio", "server.result_cache.hit_ratio"}) {
      m->push_back({name, "ratio"});
    }
    m->push_back({"server.plan_cache.variant_evictions", "count"});
    m->push_back({"server.plan_cache.invalidations", "count"});
    m->push_back({"shard.route_us", "us"});
    for (const char* kind : {"routed", "scatter", "broadcast", "fallback"}) {
      m->push_back({std::string("shard.submit_us.") + kind, "us"});
    }
    m->push_back({"shard.fanout", "subreq/req"});
    m->push_back({"shard.fallback_ratio", "ratio"});
    for (const char* name : {"query.parse_us", "query.normalize_us",
                             "query.optimize_us", "query.plan_us"}) {
      m->push_back({name, "us"});
    }
    for (core::QueryKind k : kKinds) {
      m->push_back(
          {std::string("query.execute_us.") + core::QueryKindName(k), "us"});
    }
    for (core::QueryKind k : kKinds) {
      m->push_back(
          {std::string("query.run_us.") + core::QueryKindName(k), "us"});
    }
    m->push_back({"query.rows_examined_per_row_returned", "ratio"});
    m->push_back({"query.predicate_evals", "count"});
    m->push_back({"query.rows_joined", "count"});
    m->push_back({"storage.bytes_scanned", "B"});
    m->push_back({"storage.encode_ms", "ms"});
    m->push_back({"core.add_activity_us", "us"});
    m->push_back({"integration.integrate_ms", "ms"});
    m->push_back({"integration.requests", "count"});
    m->push_back({"integration.bytes", "B"});
    m->push_back({"bio.distance_ms", "ms"});
    m->push_back({"phylo.build_tree_ms", "ms"});
    m->push_back({"phylo.index_ms", "ms"});
    m->push_back({"obs.bench_tracing_overhead_pct", "%"});
    m->push_back({"bench.send_lag_p99_ms", "ms"});
    m->push_back({"bench.host_steal_pct", "%"});
    m->push_back({"bench.calm_share", "ratio"});
    for (const char* layer : kLayers) {
      m->push_back({std::string("self_ms.") + layer, "ms"});
    }
    return m;
  }();
  return *metrics;
}

void SetMetric(MetricSet* set, const std::string& name, double value) {
  (*set)[name].value = value;
}

MetricSet NewLayerMetrics() {
  MetricSet set;
  for (const auto& [name, unit] : LayerMetrics()) set[name] = {0.0, unit};
  return set;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[10] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld %lld %lld",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                  &v[8], &v[9]) >= 8) {
    t.steal = v[7];
    for (int i = 0; i < 8; ++i) t.total += v[i];  // guest time is in user
  }
  std::fclose(f);
  return t;
}

double StealPct(const CpuTimes& before, const CpuTimes& after) {
  int64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

HostMonitor::HostMonitor()
    : thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
          samples_.emplace_back(NowNanos(), ReadCpuTimes());
          cv_.wait_for(lock, std::chrono::milliseconds(50));
        }
      }) {}

HostMonitor::~HostMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

CpuTimes HostMonitor::At(int64_t t_ns) const {
  CpuTimes at = samples_.empty() ? CpuTimes() : samples_.front().second;
  for (const auto& [t, c] : samples_) {
    if (t > t_ns) break;
    at = c;
  }
  return at;
}

double HostMonitor::StealPct(int64_t a_ns, int64_t b_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return perfbench::StealPct(At(a_ns), At(b_ns));
}

CalmSlices::CalmSlices(const HostMonitor& monitor, int64_t start_ns,
                       int64_t end_ns, int64_t slice_ns)
    : start_ns_(start_ns), slice_ns_(slice_ns) {
  int64_t slices = std::max<int64_t>(1, (end_ns - start_ns) / slice_ns);
  std::vector<double> steal;
  for (int64_t i = 0; i < slices; ++i) {
    int64_t a = start_ns + i * slice_ns;
    steal.push_back(monitor.StealPct(a, a + slice_ns));
  }
  // Keep at least the calmest quarter, however disturbed the window was.
  const double limit = std::max(kCalmStealPct, Percentile(steal, 25));
  size_t calm = 0;
  for (double pct : steal) {
    kept_.push_back(pct <= limit);
    calm += pct <= kCalmStealPct ? 1 : 0;
  }
  calm_share_ = static_cast<double>(calm) / static_cast<double>(steal.size());
}

bool CalmSlices::Keep(int64_t t_ns) const {
  int64_t i = (t_ns - start_ns_) / slice_ns_;
  return i >= 0 && i < static_cast<int64_t>(kept_.size()) &&
         kept_[static_cast<size_t>(i)];
}

double CalmSlices::MedianRate(
    const std::vector<std::pair<int64_t, int64_t>>& events) const {
  std::vector<double> counts(kept_.size(), 0.0);
  for (const auto& [t, n] : events) {
    int64_t i = (t - start_ns_) / slice_ns_;
    if (i >= 0 && i < static_cast<int64_t>(counts.size())) {
      counts[static_cast<size_t>(i)] += static_cast<double>(n);
    }
  }
  std::vector<double> kept;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (kept_[i]) kept.push_back(counts[i]);
  }
  return Median(kept) / (static_cast<double>(slice_ns_) / 1e9);
}

std::vector<double> CalmSlices::Kept(
    const std::vector<std::pair<int64_t, double>>& samples) const {
  std::vector<double> out;
  for (const auto& [t, v] : samples) {
    if (Keep(t)) out.push_back(v);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

util::Result<Deployment> TimedSetup(const Scale& scale, uint64_t seed,
                                    int reps, const ServeFn& serve,
                                    double* setup_s) {
  std::vector<double> seconds;
  Deployment kept;
  for (int i = 0; i < reps; ++i) {
    // Tear the previous copy down first, serving side before the catalog it
    // borrows, so at most one catalog is resident.
    kept.router.reset();
    kept.server.reset();
    kept.dt.reset();
    Deployment d;
    d.clock = std::make_unique<util::SimulatedClock>();
    int64_t start = NowNanos();
    DRUGTREE_ASSIGN_OR_RETURN(
        d.dt, core::DrugTree::Build(MakeBuildOptions(scale, seed),
                                    d.clock.get()));
    DRUGTREE_RETURN_IF_ERROR(serve(&d));
    seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    kept = std::move(d);
  }
  *setup_s = *std::min_element(seconds.begin(), seconds.end());
  std::string line;
  for (double s : seconds) line += " " + std::to_string(s);
  std::fprintf(stderr, "set-up seconds:%s\n", line.c_str());
  return kept;
}

util::Result<query::QueryResult> Oracle::Expected(const std::string& sql) {
  DRUGTREE_ASSIGN_OR_RETURN(
      query::QueryOutcome outcome,
      planner_.Run(sql, query::PlannerOptions::Naive()));
  return std::move(outcome.result);
}

bool SameRows(const query::QueryResult& want, const query::QueryResult& got,
              std::string* why) {
  if (want.columns != got.columns) {
    *why = "column names differ";
    return false;
  }
  if (want.rows.size() != got.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + ", expected " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    if (want.rows[r].size() != got.rows[r].size()) {
      *why = "row " + std::to_string(r) + " width differs";
      return false;
    }
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      if (want.rows[r][c] != got.rows[r][c]) {
        *why = "row " + std::to_string(r) + " column " + want.columns[c] +
               ": " + got.rows[r][c].ToString() + ", expected " +
               want.rows[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

bool SameRowsUpToTies(const query::QueryResult& want,
                      const query::QueryResult& got,
                      const std::string& key_column, size_t limit,
                      std::string* why) {
  auto key = std::find(want.columns.begin(), want.columns.end(), key_column);
  if (want.columns != got.columns || key == want.columns.end()) {
    *why = "column names differ or lack " + key_column;
    return false;
  }
  if (want.rows.size() != got.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + ", expected " +
           std::to_string(want.rows.size());
    return false;
  }
  const size_t k = static_cast<size_t>(key - want.columns.begin());
  auto by_value = [](const storage::Row& a, const storage::Row& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  for (size_t lo = 0; lo < want.rows.size();) {
    size_t hi = lo;
    while (hi < want.rows.size() && want.rows[hi][k] == want.rows[lo][k]) {
      if (got.rows[hi][k] != want.rows[lo][k]) {
        *why = "row " + std::to_string(hi) + " " + key_column + ": " +
               got.rows[hi][k].ToString() + ", expected " +
               want.rows[lo][k].ToString();
        return false;
      }
      ++hi;
    }
    const bool cut = hi == want.rows.size() && want.rows.size() == limit;
    std::vector<storage::Row> a(want.rows.begin() + lo, want.rows.begin() + hi);
    std::vector<storage::Row> b(got.rows.begin() + lo, got.rows.begin() + hi);
    std::sort(a.begin(), a.end(), by_value);
    std::sort(b.begin(), b.end(), by_value);
    if (!cut && a != b) {
      *why = "rows " + std::to_string(lo) + ".." + std::to_string(hi - 1) +
             " (tied on " + key_column + ") differ";
      return false;
    }
    lo = hi;
  }
  return true;
}

util::Result<std::vector<std::string>> ReadColumn(core::DrugTree* dt,
                                                  const std::string& sql) {
  DRUGTREE_ASSIGN_OR_RETURN(query::QueryOutcome out, dt->Query(sql));
  std::vector<std::string> values;
  for (const storage::Row& row : out.result.rows) {
    values.push_back(row[0].AsString());
  }
  return values;
}

server::QueryClass ClassOf(core::QueryKind kind) {
  switch (kind) {
    case core::QueryKind::kScreeningJoin:
    case core::QueryKind::kFamilyAggregate:
      return server::QueryClass::kAnalytic;
    default:
      return server::QueryClass::kInteractive;
  }
}

ServerTotals ReadServerTotals(
    const std::vector<server::DrugTreeServer*>& servers) {
  ServerTotals t;
  for (server::DrugTreeServer* s : servers) {
    query::PlanCache::Stats p = s->plan_cache()->stats();
    t.plan.hits += p.hits;
    t.plan.misses += p.misses;
    t.plan.invalidations += p.invalidations;
    t.plan.variant_evictions += p.variant_evictions;
    storage::CacheStats r = s->result_cache()->stats();
    t.result_hits += r.hits;
    t.result_misses += r.misses;
    for (server::QueryClass c :
         {server::QueryClass::kInteractive, server::QueryClass::kAnalytic}) {
      server::DrugTreeServer::ClassCounters cc = s->counters(c);
      t.admitted += cc.admitted;
      t.shed += cc.shed;
      t.deadline_missed += cc.deadline_missed;
    }
  }
  return t;
}

void SetServerMetrics(const ServerTotals& b, const ServerTotals& a,
                      MetricSet* layer) {
  double hits = static_cast<double>(a.plan.hits - b.plan.hits);
  double misses = static_cast<double>(a.plan.misses - b.plan.misses);
  SetMetric(layer, "server.plan_cache.hit_ratio", Ratio(hits, hits + misses));
  SetMetric(layer, "server.plan_cache.variant_evictions",
      static_cast<double>(a.plan.variant_evictions - b.plan.variant_evictions));
  SetMetric(layer, "server.plan_cache.invalidations",
      static_cast<double>(a.plan.invalidations - b.plan.invalidations));
  double rh = static_cast<double>(a.result_hits - b.result_hits);
  double rm = static_cast<double>(a.result_misses - b.result_misses);
  SetMetric(layer, "server.result_cache.hit_ratio", Ratio(rh, rh + rm));
  double admitted = static_cast<double>(a.admitted - b.admitted);
  double shed = static_cast<double>(a.shed - b.shed);
  SetMetric(layer, "server.shed_ratio", Ratio(shed, admitted + shed));
  SetMetric(layer, "server.deadline_miss_ratio",
      Ratio(static_cast<double>(a.deadline_missed - b.deadline_missed),
            admitted));
}

util::Status ProbeSetupLayers(const Scale& scale, uint64_t seed,
                              MetricSet* layer) {
  // The same steps, options and random stream as DrugTree::Build.
  core::BuildOptions o = MakeBuildOptions(scale, seed);
  util::SimulatedClock clock;
  util::Rng rng(o.seed);
  integration::SimulatedNetwork network(&clock, o.source_network,
                                        o.seed ^ 0x5EEDULL);
  integration::ProteinSourceParams pp;
  pp.num_families = o.num_families;
  pp.taxa_per_family = o.taxa_per_family;
  pp.sequence_length = o.sequence_length;
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::ProteinSource proteins,
      integration::ProteinSource::Create(pp, &network, &rng));
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::LigandSource ligands,
      integration::LigandSource::Create(o.num_ligands,
                                        chem::LigandGenParams(), &network,
                                        &rng));
  std::vector<std::string> accessions = proteins.ListAccessions();
  std::vector<std::string> ligand_ids = ligands.ListIds();
  integration::ActivityGenParams ap;
  ap.activities_per_protein = o.activities_per_protein;
  DRUGTREE_ASSIGN_OR_RETURN(
      integration::ActivitySource activities,
      integration::ActivitySource::Create(accessions, ligand_ids, ap,
                                          &network, &rng));
  integration::SemanticCache cache(o.semantic_cache_bytes);
  integration::Mediator mediator(&proteins, &ligands, &activities, &cache);
  integration::MediatorOptions mo;
  mo.batch_requests = o.batch_requests;
  mo.max_concurrency = o.fetch_concurrency;

  uint64_t requests0 = network.num_requests();
  uint64_t bytes0 = network.bytes_transferred();
  integration::IntegratedDataset dataset;
  {
    ScopedSpan span("integration.IntegrateAll");
    DRUGTREE_ASSIGN_OR_RETURN(dataset, mediator.IntegrateAll(mo));
  }
  SetMetric(layer, "integration.requests",
      static_cast<double>(network.num_requests() - requests0));
  SetMetric(layer, "integration.bytes",
      static_cast<double>(network.bytes_transferred() - bytes0));

  std::vector<bio::Sequence> seqs;
  const storage::Table& pt = *dataset.proteins;
  DRUGTREE_ASSIGN_OR_RETURN(size_t acc_col, pt.schema().IndexOf("accession"));
  DRUGTREE_ASSIGN_OR_RETURN(size_t seq_col, pt.schema().IndexOf("sequence"));
  for (storage::RowId rid : pt.LiveRows()) {
    const storage::Row& row = pt.row(rid);
    DRUGTREE_ASSIGN_OR_RETURN(
        bio::Sequence s,
        bio::Sequence::Create(row[acc_col].AsString(),
                              row[seq_col].AsString()));
    seqs.push_back(std::move(s));
  }
  bio::DistanceMatrix dist;
  {
    ScopedSpan span("bio.KmerDistanceMatrix");
    DRUGTREE_ASSIGN_OR_RETURN(dist, bio::KmerDistanceMatrix(seqs, o.kmer_k));
  }
  phylo::Tree tree;
  {
    ScopedSpan span("phylo.BuildTree");
    DRUGTREE_ASSIGN_OR_RETURN(tree, phylo::BuildTree(dist, o.tree_method));
  }
  {
    ScopedSpan span("phylo.TreeIndex::Build");
    DRUGTREE_RETURN_IF_ERROR(phylo::TreeIndex::Build(tree).status());
  }
  return util::Status::OK();
}

util::Status ProbeQueryLayers(query::Catalog* catalog,
                              server::DrugTreeServer* server,
                              const std::vector<core::WorkloadQuery>& sample,
                              MetricSet* layer) {
  const query::PlannerOptions options;
  query::Planner bare(catalog);
  // Run through a plan cache of its own, warmed on the statement, so
  // query.run_us matches the server's steady state and the difference to
  // the server's sojourn is serving overhead.
  query::PlanCache plan_cache;
  query::Planner cached(catalog, nullptr, &plan_cache);
  std::map<core::QueryKind, std::vector<double>> overhead;
  double examined = 0.0, returned = 0.0, predicate_evals = 0.0, joined = 0.0,
         bytes = 0.0;
  for (const core::WorkloadQuery& q : sample) {
    size_t k = static_cast<size_t>(q.kind);
    query::Statement stmt;
    {
      ScopedSpan span("query.ParseStatement");
      DRUGTREE_ASSIGN_OR_RETURN(stmt, query::ParseStatement(q.sql));
    }
    {
      ScopedSpan span("query.NormalizeStatement");
      query::NormalizeStatement(&stmt.select, /*want_canonical=*/false);
    }
    {
      ScopedSpan span("query.Optimize");
      DRUGTREE_ASSIGN_OR_RETURN(query::LogicalPtr logical,
                                query::BuildLogicalPlan(stmt.select, *catalog));
      DRUGTREE_RETURN_IF_ERROR(
          query::OptimizeLogicalPlan(logical, *catalog, options.optimizer)
              .status());
    }
    query::ExecStats stats;
    query::PhysicalPtr physical;
    {
      ScopedSpan span("query.Plan");
      DRUGTREE_ASSIGN_OR_RETURN(physical, bare.Plan(q.sql, options, &stats));
    }
    {
      ScopedSpan span(SpanNames().execute[k].c_str());
      DRUGTREE_RETURN_IF_ERROR(
          query::ExecutePlan(physical.get(), nullptr, options.batch_size)
              .status());
    }
    DRUGTREE_RETURN_IF_ERROR(cached.Run(q.sql, options).status());
    int64_t run_start = NowNanos();
    query::QueryOutcome outcome;
    {
      ScopedSpan span(SpanNames().run[k].c_str());
      DRUGTREE_ASSIGN_OR_RETURN(outcome, cached.Run(q.sql, options));
    }
    int64_t run_ns = NowNanos() - run_start;
    examined += static_cast<double>(outcome.stats.rows_scanned +
                                    outcome.stats.rows_index_fetched);
    returned += static_cast<double>(outcome.result.rows.size());
    predicate_evals += static_cast<double>(outcome.stats.predicate_evals);
    joined += static_cast<double>(outcome.stats.rows_joined);
    bytes += static_cast<double>(outcome.stats.bytes_scanned);

    server::QueryRequest request;
    request.session_id = 9999;
    request.sql = q.sql;
    request.query_class = ClassOf(q.kind);
    int64_t sojourn_start = NowNanos();
    {
      ScopedSpan sojourn(request.query_class == server::QueryClass::kAnalytic
                             ? "server.sojourn.analytic"
                             : "server.sojourn.interactive");
      server::ResponseHandle handle;
      {
        ScopedSpan span("server.SubmitAsync");
        handle = server->SubmitAsync(std::move(request));
      }
      ScopedSpan span("server.Wait");
      DRUGTREE_RETURN_IF_ERROR(handle.Wait().status());
    }
    overhead[q.kind].push_back(
        static_cast<double>(NowNanos() - sojourn_start - run_ns) / 1e3);
  }
  for (const auto& [kind, values] : overhead) {
    SetMetric(layer,
              std::string("server.overhead_us.") + core::QueryKindName(kind),
              Median(values));
  }
  double n = static_cast<double>(sample.size());
  SetMetric(layer, "query.rows_examined_per_row_returned",
            Ratio(examined, returned));
  SetMetric(layer, "query.predicate_evals", Ratio(predicate_evals, n));
  SetMetric(layer, "query.rows_joined", Ratio(joined, n));
  SetMetric(layer, "storage.bytes_scanned", Ratio(bytes, n));
  return util::Status::OK();
}

util::Status ProbeMobileLayers(core::DrugTree* dt,
                               const mobile::DeviceProfile& device,
                               const std::vector<mobile::Action>& trace) {
  // The viewport steps MobileSession applies per action (session.cc).
  const phylo::TreeLayout& layout = dt->layout();
  const std::vector<double> annotation = dt->overlay()->AnnotationVector();
  mobile::LodParams lod = mobile::SessionOptions().lod;
  lod.screen_height_px = device.screen_height_px;
  mobile::ClientCache cache(device.cache_bytes);
  mobile::Viewport viewport = mobile::Viewport::FullExtent(layout);
  for (const mobile::Action& action : trace) {
    switch (action.kind) {
      case mobile::ActionKind::kInitialLoad:
        viewport = mobile::Viewport::FullExtent(layout);
        break;
      case mobile::ActionKind::kZoomIn:
        viewport.Zoom(0.5, layout);
        break;
      case mobile::ActionKind::kZoomOut:
        viewport.Zoom(2.0, layout);
        break;
      case mobile::ActionKind::kPan:
        viewport.Pan(action.dx * viewport.Width(),
                     action.dy * viewport.Height(), layout);
        break;
      case mobile::ActionKind::kFocusNode: {
        double h = std::max(2.0, static_cast<double>(
                                     dt->tree_index().SubtreeLeafCount(
                                         action.node)));
        viewport.CenterOn(layout.position(action.node), viewport.Width(),
                          h * 1.2, layout);
        break;
      }
      case mobile::ActionKind::kOverlayQuery:
        continue;
    }
    std::vector<mobile::LodNode> cut;
    {
      ScopedSpan span("mobile.ComputeLodCut");
      DRUGTREE_ASSIGN_OR_RETURN(
          cut, mobile::ComputeLodCut(dt->tree(), dt->tree_index(), layout,
                                     viewport, annotation, lod));
    }
    mobile::Frame frame;
    {
      ScopedSpan span("mobile.BuildFrame");
      frame = mobile::BuildFrame(cut, cache.CollapsedIds(),
                                 cache.ExpandedIds(), /*delta=*/true);
    }
    cache.Install(frame.nodes);
  }
  return util::Status::OK();
}

util::Status ProbeEncode(core::DrugTree* dt) {
  ScopedSpan span("storage.BuildEncodedSegments");
  return dt->BuildEncodedSegments();
}

util::Status ProbeWrites(core::DrugTree* dt, server::DrugTreeServer* server,
                         uint64_t seed,
                         const std::vector<core::WorkloadQuery>& replay,
                         MetricSet* layer) {
  DRUGTREE_ASSIGN_OR_RETURN(
      std::vector<std::string> accessions,
      ReadColumn(dt,
                 "SELECT p.accession FROM proteins p ORDER BY p.accession"));
  DRUGTREE_ASSIGN_OR_RETURN(
      std::vector<std::string> ligand_ids,
      ReadColumn(dt,
                 "SELECT l.ligand_id FROM ligands l ORDER BY l.ligand_id"));
  server->Drain();
  const ServerTotals before = ReadServerTotals({server});
  for (const ActivityWrite& w :
       MakeWriteBatch(seed, 0, 16, accessions, ligand_ids)) {
    ScopedSpan span("core.AddActivity");
    DRUGTREE_RETURN_IF_ERROR(
        dt->AddActivity(w.accession, w.ligand_id, w.affinity_nm));
  }
  DRUGTREE_RETURN_IF_ERROR(ProbeEncode(dt));
  for (const core::WorkloadQuery& q : replay) {
    server::QueryRequest request;
    request.session_id = 9998;
    request.sql = q.sql;
    request.query_class = ClassOf(q.kind);
    DRUGTREE_RETURN_IF_ERROR(server->Submit(std::move(request)).status());
  }
  const ServerTotals after = ReadServerTotals({server});
  SetMetric(layer, "server.plan_cache.invalidations",
      static_cast<double>(after.plan.invalidations -
                          before.plan.invalidations));
  return util::Status::OK();
}

void SetSpanMetrics(MetricSet* layer) {
  std::map<std::string, SpanTotals> totals = SpanRecorder::Get().Totals();
  auto mean_us = [&](const std::string& span) {
    auto it = totals.find(span);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  const std::pair<const char*, const char*> per_call_us[] = {
      {"mobile.lod_cut_us", "mobile.ComputeLodCut"},
      {"mobile.frame_encode_us", "mobile.BuildFrame"},
      {"server.submit_us", "server.SubmitAsync"},
      {"server.sojourn_us.interactive", "server.sojourn.interactive"},
      {"server.sojourn_us.analytic", "server.sojourn.analytic"},
      {"shard.route_us", "shard.Route"},
      {"shard.submit_us.routed", "shard.Submit.routed"},
      {"shard.submit_us.scatter", "shard.Submit.scatter"},
      {"shard.submit_us.broadcast", "shard.Submit.broadcast"},
      {"shard.submit_us.fallback", "shard.Submit.fallback"},
      {"query.parse_us", "query.ParseStatement"},
      {"query.normalize_us", "query.NormalizeStatement"},
      {"query.optimize_us", "query.Optimize"},
      {"query.plan_us", "query.Plan"},
      {"core.add_activity_us", "core.AddActivity"}};
  for (const auto& [metric, span] : per_call_us) {
    SetMetric(layer, metric, mean_us(span));
  }
  for (size_t k = 0; k < std::size(kKinds); ++k) {
    std::string kind = core::QueryKindName(kKinds[k]);
    SetMetric(layer, "query.execute_us." + kind,
              mean_us(SpanNames().execute[k]));
    SetMetric(layer, "query.run_us." + kind, mean_us(SpanNames().run[k]));
  }
  const std::pair<const char*, const char*> per_call_ms[] = {
      {"storage.encode_ms", "storage.BuildEncodedSegments"},
      {"integration.integrate_ms", "integration.IntegrateAll"},
      {"bio.distance_ms", "bio.KmerDistanceMatrix"},
      {"phylo.build_tree_ms", "phylo.BuildTree"},
      {"phylo.index_ms", "phylo.TreeIndex::Build"}};
  for (const auto& [metric, span] : per_call_ms) {
    SetMetric(layer, metric, mean_us(span) / 1e3);
  }
  std::map<std::string, double> self_us;
  for (const auto& [name, t] : totals) {
    self_us[name.substr(0, name.find('.'))] += t.self_us;
  }
  for (const char* l : kLayers) {
    SetMetric(layer, std::string("self_ms.") + l, self_us[l] / 1e3);
  }
}

void PrintResult(const RunResult& result, bool trace) {
  std::string json = "{\"correct\": ";
  json += result.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  const MetricSet& metrics = trace ? result.layer : result.end_to_end;
  bool first = true;
  for (const auto& [name, unit] : trace ? LayerMetrics() : EndToEndMetrics()) {
    auto it = metrics.find(name);
    double value = it == metrics.end() ? 0.0 : it->second.value;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
