// E1 (Fig 1): subtree-query latency vs tree size — the poster's reported
// "lags concerning querying the tree" and their removal.
//
// Series: naive per-row SUBTREE evaluation (full scan) vs the interval
// rewrite + B+-tree range scan. Focus clades are mid-size (~10% of leaves).
//
// The "Traced/" twins install a per-query obs::TraceContext around every
// Run and finish it into a record, as the serving layer does.
// scripts/obs_noop_ab.sh runs them and their untraced originals in
// separate, interleaved processes to gate the cost of tracing.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "obs/trace_context.h"

namespace {

using namespace drugtree;
using bench::BuildTreeNodesTable;
using bench::MakeRandomTree;

struct Fixture {
  phylo::Tree tree;
  std::unique_ptr<phylo::TreeIndex> index;
  std::unique_ptr<storage::Table> table;
  query::Catalog catalog;
  std::unique_ptr<query::Planner> planner;
  std::vector<phylo::NodeId> focus_nodes;
};

Fixture* MakeFixture(int leaves) {
  auto* f = new Fixture();
  f->tree = MakeRandomTree(leaves, 7);
  f->index = std::make_unique<phylo::TreeIndex>(
      std::move(*phylo::TreeIndex::Build(f->tree)));
  f->table = BuildTreeNodesTable(f->tree, *f->index);
  DT_CHECK(f->catalog.Register(f->table.get()).ok());
  f->catalog.SetTree(&f->tree, f->index.get());
  DT_CHECK(f->catalog.BindTree("tree_nodes", {"node_id", "pre", "post"}).ok());
  f->planner = std::make_unique<query::Planner>(&f->catalog);
  // Focus nodes: internal nodes with ~5-15% of the leaves.
  int lo = std::max(2, leaves / 20), hi = std::max(3, leaves / 7);
  f->tree.PreOrder([&](phylo::NodeId id) {
    int n = f->index->SubtreeLeafCount(id);
    if (!f->tree.node(id).IsLeaf() && n >= lo && n <= hi) {
      f->focus_nodes.push_back(id);
    }
  });
  DT_CHECK(!f->focus_nodes.empty());
  return f;
}

// One fixture per size, built lazily and leaked (benchmark process lifetime).
Fixture* GetFixture(int leaves) {
  static std::map<int, Fixture*> fixtures;
  auto it = fixtures.find(leaves);
  if (it == fixtures.end()) {
    it = fixtures.emplace(leaves, MakeFixture(leaves)).first;
  }
  return it->second;
}

/// One planner run, traced like a served request when `traced` is set.
util::Result<query::QueryOutcome> RunQuery(Fixture* f, const std::string& sql,
                                           const query::PlannerOptions& options,
                                           bool traced) {
  if (!traced) return f->planner->Run(sql, options);
  static uint64_t next_trace_id = 0;
  obs::TraceContext trace(++next_trace_id, util::RealClock::Instance());
  util::Result<query::QueryOutcome> outcome = [&] {
    obs::ScopedTraceContext installed(&trace);
    return f->planner->Run(sql, options);
  }();
  obs::TraceRecord record = trace.Finish("ok", outcome.ok());
  benchmark::DoNotOptimize(record);
  return outcome;
}

void RunSubtreeQueries(benchmark::State& state,
                       const query::PlannerOptions& options,
                       bool traced = false) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    phylo::NodeId node = f->focus_nodes[cursor++ % f->focus_nodes.size()];
    std::string sql =
        "SELECT t.node_id FROM tree_nodes t WHERE SUBTREE(t.node_id, " +
        std::to_string(node) + ")";
    auto outcome = RunQuery(f, sql, options, traced);
    DT_CHECK(outcome.ok()) << outcome.status();
    rows += static_cast<int64_t>(outcome->result.rows.size());
    benchmark::DoNotOptimize(outcome->result);
  }
  state.counters["result_rows"] =
      benchmark::Counter(static_cast<double>(rows) /
                         static_cast<double>(state.iterations()));
  state.counters["tree_nodes"] =
      benchmark::Counter(static_cast<double>(f->tree.NumNodes()));
}

void BM_SubtreeQuery_Naive(benchmark::State& state) {
  RunSubtreeQueries(state, query::PlannerOptions::Naive());
}

void BM_SubtreeQuery_Optimized(benchmark::State& state) {
  RunSubtreeQueries(state, query::PlannerOptions::Optimized());
}

// Ancestor queries: the second tree-access pattern the poster's UI needs
// (breadcrumbs / path-to-root).
void RunAncestorQueries(benchmark::State& state,
                        const query::PlannerOptions& options,
                        bool traced = false) {
  Fixture* f = GetFixture(static_cast<int>(state.range(0)));
  auto leaves = f->tree.Leaves();
  size_t cursor = 0;
  for (auto _ : state) {
    phylo::NodeId leaf = leaves[cursor++ % leaves.size()];
    std::string sql =
        "SELECT t.node_id FROM tree_nodes t WHERE ANCESTOR_OF(t.node_id, " +
        std::to_string(leaf) + ")";
    auto outcome = RunQuery(f, sql, options, traced);
    DT_CHECK(outcome.ok()) << outcome.status();
    benchmark::DoNotOptimize(outcome->result);
  }
}

// Execution batch-size sweep on the naive (full-scan) subtree filter: the
// same plan at batch sizes 1 (row engine), 4, 64, and 1024, isolating the
// vectorized pipeline's contribution from the plan-level optimizations.
void BM_SubtreeQuery_BatchSize(benchmark::State& state) {
  query::PlannerOptions o = query::PlannerOptions::Naive();
  o.batch_size = static_cast<size_t>(state.range(1));
  RunSubtreeQueries(state, o);
}

void BM_AncestorQuery_Naive(benchmark::State& state) {
  RunAncestorQueries(state, query::PlannerOptions::Naive());
}

void BM_AncestorQuery_Optimized(benchmark::State& state) {
  RunAncestorQueries(state, query::PlannerOptions::Optimized());
}

void BM_SubtreeQuery_Naive_Traced(benchmark::State& state) {
  RunSubtreeQueries(state, query::PlannerOptions::Naive(), /*traced=*/true);
}

void BM_SubtreeQuery_Optimized_Traced(benchmark::State& state) {
  RunSubtreeQueries(state, query::PlannerOptions::Optimized(),
                    /*traced=*/true);
}

void BM_AncestorQuery_Optimized_Traced(benchmark::State& state) {
  RunAncestorQueries(state, query::PlannerOptions::Optimized(),
                     /*traced=*/true);
}

}  // namespace

BENCHMARK(BM_SubtreeQuery_Naive)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_SubtreeQuery_Optimized)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_SubtreeQuery_BatchSize)
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 64})
    ->Args({4096, 1024});
BENCHMARK(BM_AncestorQuery_Naive)->Arg(256)->Arg(4096);
BENCHMARK(BM_AncestorQuery_Optimized)->Arg(256)->Arg(4096);
BENCHMARK(BM_SubtreeQuery_Naive_Traced)
    ->Name("Traced/BM_SubtreeQuery_Naive")
    ->Arg(1024);
BENCHMARK(BM_SubtreeQuery_Optimized_Traced)
    ->Name("Traced/BM_SubtreeQuery_Optimized")
    ->Arg(1024);
BENCHMARK(BM_AncestorQuery_Optimized_Traced)
    ->Name("Traced/BM_AncestorQuery_Optimized")
    ->Arg(4096);

int main(int argc, char** argv) {
  drugtree::bench::Banner(
      "E1 (Fig 1)", "subtree/ancestor query latency vs tree size:\n"
      "naive per-row tree walk vs interval rewrite + B+-tree range scan");
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
