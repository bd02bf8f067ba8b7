// Sharded serving tier tests: interval partitions cover the pre axis and
// balance leaves, every sharded topology returns results bit-identical to
// the single-server path across the full query corpus (including
// boundary-straddling subtree queries) under batch and parallel execution,
// the routing decision table holds, replicas fail over mid-query, per-shard
// deadlines cancel deterministically, and the scatter-gather timeline is
// virtual-clock deterministic across identically-built topologies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "obs/trace_context.h"
#include "obs/trace_store.h"
#include "phylo/tree.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "util/clock.h"

namespace drugtree {
namespace shard {
namespace {

core::BuildOptions SmallBuild() {
  core::BuildOptions options;
  options.seed = 77;
  options.num_families = 3;
  options.taxa_per_family = 10;
  options.sequence_length = 90;
  options.num_ligands = 120;
  return options;
}

class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new util::SimulatedClock();
    auto built = core::DrugTree::Build(SmallBuild(), clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = built->release();
  }
  static void TearDownTestSuite() {
    delete dt_;
    dt_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static RouterOptions Topology(int shards, int replicas) {
    RouterOptions options;
    options.num_shards = shards;
    options.replicas_per_shard = replicas;
    options.replica.worker_threads = 2;
    options.replica.scheduler.total_slots = 2;
    options.coordinator.worker_threads = 2;
    options.coordinator.scheduler.total_slots = 2;
    return options;
  }

  static server::QueryRequest Request(std::string sql,
                                      query::PlannerOptions planner =
                                          query::PlannerOptions()) {
    server::QueryRequest r;
    r.session_id = 1;
    r.sql = std::move(sql);
    r.query_class = server::QueryClass::kInteractive;
    r.planner = planner;
    return r;
  }

  /// Every corpus query shape focused on every internal node (subtree
  /// shapes) / every leaf (ancestor paths) — the focus sweep necessarily
  /// includes nodes whose intervals straddle every partition boundary.
  static std::vector<std::string> Corpus() {
    std::vector<std::string> sqls;
    core::WorkloadParams params;
    const phylo::Tree& tree = dt_->tree();
    for (phylo::NodeId id = 0; id < static_cast<phylo::NodeId>(tree.NumNodes());
         ++id) {
      if (tree.node(id).IsLeaf()) {
        sqls.push_back(core::MakeQuerySql(core::QueryKind::kAncestorPath, id,
                                          tree, params));
      } else {
        for (core::QueryKind kind : {core::QueryKind::kSubtreeProteins,
                                     core::QueryKind::kSubtreeOverlay,
                                     core::QueryKind::kScreeningJoin}) {
          sqls.push_back(core::MakeQuerySql(kind, id, tree, params));
        }
      }
    }
    sqls.push_back(core::MakeQuerySql(core::QueryKind::kFamilyAggregate,
                                      tree.root(), tree, params));
    return sqls;
  }

  static void ExpectCorpusIdentical(ShardRouter* router,
                                    const query::PlannerOptions& planner,
                                    const std::string& what) {
    for (const std::string& sql : Corpus()) {
      auto direct = dt_->Query(sql, planner);
      ASSERT_TRUE(direct.ok()) << what << ": " << sql << ": "
                               << direct.status();
      auto routed = router->Submit(Request(sql, planner));
      ASSERT_TRUE(routed.ok()) << what << ": " << sql << ": "
                               << routed.status();
      EXPECT_EQ(direct->result.columns, routed->result.columns)
          << what << ": " << sql;
      ASSERT_EQ(direct->result.rows.size(), routed->result.rows.size())
          << what << ": " << sql;
      for (size_t i = 0; i < direct->result.rows.size(); ++i) {
        ASSERT_EQ(direct->result.rows[i], routed->result.rows[i])
            << what << ": " << sql << " row " << i;
      }
    }
  }

  static util::SimulatedClock* clock_;
  static core::DrugTree* dt_;
};

util::SimulatedClock* ShardTest::clock_ = nullptr;
core::DrugTree* ShardTest::dt_ = nullptr;

TEST_F(ShardTest, SplitCoversPreAxisContiguouslyAndBalancesLeaves) {
  const phylo::Tree& tree = dt_->tree();
  const phylo::TreeIndex& index = dt_->tree_index();
  const auto num_nodes = static_cast<int32_t>(index.NumNodes());
  int64_t total_leaves = static_cast<int64_t>(tree.NumLeaves());
  for (int n : {1, 2, 4, 8}) {
    auto split = IntervalPartitioner::Split(tree, index, n);
    ASSERT_TRUE(split.ok()) << split.status();
    ASSERT_EQ(static_cast<int>(split->size()), n);
    int32_t expect_lo = 0;
    int64_t leaves = 0;
    for (int s = 0; s < n; ++s) {
      const ShardRange& r = (*split)[static_cast<size_t>(s)];
      EXPECT_EQ(r.shard, s);
      EXPECT_EQ(r.pre_lo, expect_lo);
      EXPECT_LE(r.pre_lo, r.pre_hi);
      expect_lo = r.pre_hi + 1;
      leaves += r.leaves;
      // Leaf-count balance: every shard within 2x of the even share.
      EXPECT_GE(r.leaves, 1) << "shard " << s << "/" << n;
      EXPECT_LE(r.leaves, 2 * (total_leaves + n - 1) / n + 1)
          << "shard " << s << "/" << n;
    }
    EXPECT_EQ(expect_lo, num_nodes);
    EXPECT_EQ(leaves, total_leaves);
  }
  EXPECT_FALSE(IntervalPartitioner::Split(tree, index, 0).ok());
  EXPECT_FALSE(
      IntervalPartitioner::Split(tree, index, num_nodes + 1).ok());
}

TEST_F(ShardTest, CorpusBitIdenticalAcrossTopologies) {
  for (int shards : {2, 4, 8}) {
    for (int replicas : {1, 2}) {
      auto router = dt_->MakeShardRouter(Topology(shards, replicas));
      ASSERT_TRUE(router.ok()) << router.status();
      ExpectCorpusIdentical(
          router->get(), query::PlannerOptions(),
          "N=" + std::to_string(shards) + " R=" + std::to_string(replicas));
      auto counters = (*router)->route_counters();
      EXPECT_GT(counters.routed + counters.scatter + counters.broadcast, 0);
      EXPECT_GT(counters.fallback, 0);  // the family aggregate
      EXPECT_EQ(counters.failed, 0);
      (*router)->Drain();
    }
  }
}

TEST_F(ShardTest, CorpusBitIdenticalAcrossExecutionModes) {
  auto router = dt_->MakeShardRouter(Topology(4, 2));
  ASSERT_TRUE(router.ok()) << router.status();
  query::PlannerOptions naive = query::PlannerOptions::Naive();
  naive.batch_size = 1;
  query::PlannerOptions row_at_a_time;
  row_at_a_time.batch_size = 1;
  query::PlannerOptions parallel;
  parallel.parallelism = 4;
  ExpectCorpusIdentical(router->get(), naive, "naive");
  ExpectCorpusIdentical(router->get(), row_at_a_time, "batch=1");
  ExpectCorpusIdentical(router->get(), parallel, "parallel=4");
  (*router)->Drain();
}

TEST_F(ShardTest, RoutingDecisionTable) {
  auto router = dt_->MakeShardRouter(Topology(4, 1));
  ASSERT_TRUE(router.ok()) << router.status();
  core::WorkloadParams params;
  const phylo::Tree& tree = dt_->tree();

  // Root subtree touches every shard; the corpus shapes carry ORDER BY, so
  // the merge is exact -> broadcast, not coordinator fallback.
  auto d = (*router)->Route(core::MakeQuerySql(
      core::QueryKind::kSubtreeProteins, tree.root(), tree, params));
  EXPECT_EQ(d.kind, RouteKind::kBroadcast) << d.ToString();
  EXPECT_EQ(static_cast<int>(d.shards.size()), 4);

  // A leaf's interval is one pre number -> exactly one owning shard.
  phylo::NodeId leaf = tree.Leaves().front();
  d = (*router)->Route(core::MakeQuerySql(core::QueryKind::kSubtreeProteins,
                                          leaf, tree, params));
  EXPECT_EQ(d.kind, RouteKind::kRouted) << d.ToString();
  EXPECT_EQ(d.shards.size(), 1u);

  // Global aggregation cannot be merged from partials -> coordinator.
  d = (*router)->Route(core::MakeQuerySql(core::QueryKind::kFamilyAggregate,
                                          tree.root(), tree, params));
  EXPECT_EQ(d.kind, RouteKind::kFallback) << d.ToString();

  // Multi-shard output without ORDER BY is not mergeable deterministically.
  d = (*router)->Route("SELECT p.accession FROM proteins p");
  EXPECT_EQ(d.kind, RouteKind::kFallback) << d.ToString();

  // Only the replicated dimension -> nothing is partitioned; coordinator.
  d = (*router)->Route("SELECT l.name FROM ligands l ORDER BY l.name");
  EXPECT_EQ(d.kind, RouteKind::kFallback) << d.ToString();

  // An unresolvable node falls back so the coordinator reproduces the
  // single-server plan-time error verbatim.
  d = (*router)->Route(
      "SELECT p.accession FROM proteins p "
      "WHERE SUBTREE(p.node_id, 'no-such-node') ORDER BY p.accession");
  EXPECT_EQ(d.kind, RouteKind::kFallback) << d.ToString();
  auto err = (*router)->Submit(Request(
      "SELECT p.accession FROM proteins p "
      "WHERE SUBTREE(p.node_id, 'no-such-node') ORDER BY p.accession"));
  auto direct_err = dt_->Query(
      "SELECT p.accession FROM proteins p "
      "WHERE SUBTREE(p.node_id, 'no-such-node') ORDER BY p.accession");
  ASSERT_FALSE(err.ok());
  ASSERT_FALSE(direct_err.ok());
  EXPECT_EQ(err.status().code(), direct_err.status().code());

  // EXPLAIN surfaces the routing decision as the leading plan line.
  auto explained = (*router)->Submit(Request(
      "EXPLAIN " + core::MakeQuerySql(core::QueryKind::kSubtreeProteins,
                                      tree.root(), tree, params)));
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(explained->physical_plan.rfind("route: shards=4 broadcast", 0), 0u)
      << explained->physical_plan;

  // A served (non-EXPLAIN) routed statement renders no plan text, but its
  // plan still leads with the route line, and nothing follows it.
  const std::string leaf_sql = core::MakeQuerySql(
      core::QueryKind::kSubtreeProteins, leaf, tree, params);
  auto routed = (*router)->Submit(Request(leaf_sql));
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(routed->physical_plan,
            "route: " + (*router)->Route(leaf_sql).ToString() + "\n");
  EXPECT_NE(routed->physical_plan.find(" routed ("), std::string::npos)
      << routed->physical_plan;
  EXPECT_TRUE(routed->logical_plan.empty());
  (*router)->Drain();
}

TEST_F(ShardTest, ReplicaFailoverMidQuery) {
  auto made = dt_->MakeShardRouter(Topology(2, 2));
  ASSERT_TRUE(made.ok()) << made.status();
  ShardRouter* router = made->get();
  const std::string sql = core::MakeQuerySql(
      core::QueryKind::kSubtreeProteins, dt_->tree().root(), dt_->tree(),
      core::WorkloadParams());
  auto direct = dt_->Query(sql);
  ASSERT_TRUE(direct.ok()) << direct.status();

  // Stage: replica 0 of each shard (the deterministic least-loaded pick)
  // admits but never dispatches, so the scatter blocks mid-query.
  router->replica_server(0, 0)->Pause();
  router->replica_server(1, 0)->Pause();

  util::Result<query::QueryOutcome> routed =
      util::Status::Internal("pending");
  std::thread submitter(
      [&] { routed = router->Submit(Request(sql)); });
  auto queued_on = [&](int shard) {
    return router->replica_server(shard, 0)
               ->counters(server::QueryClass::kInteractive)
               .admitted > 0;
  };
  while (!queued_on(0) || !queued_on(1)) {
    std::this_thread::yield();
  }

  // Fail both primaries: their in-flight sub-requests are cancelled and the
  // router retries each on the healthy sibling.
  router->MarkReplicaDown(0, 0);
  router->MarkReplicaDown(1, 0);
  EXPECT_TRUE(router->replica_down(0, 0));
  router->replica_server(0, 0)->Resume();
  router->replica_server(1, 0)->Resume();
  submitter.join();

  ASSERT_TRUE(routed.ok()) << routed.status();
  ASSERT_EQ(direct->result.rows.size(), routed->result.rows.size());
  for (size_t i = 0; i < direct->result.rows.size(); ++i) {
    EXPECT_EQ(direct->result.rows[i], routed->result.rows[i]) << "row " << i;
  }
  EXPECT_GE(router->shard_counters(0).failovers, 1);
  EXPECT_GE(router->shard_counters(1).failovers, 1);

  // Recovery: marked back up, the replica serves again.
  router->MarkReplicaUp(0, 0);
  router->MarkReplicaUp(1, 0);
  auto again = router->Submit(Request(sql));
  ASSERT_TRUE(again.ok()) << again.status();
  router->Drain();
}

TEST_F(ShardTest, PerShardDeadlineCancelsBeforeDispatch) {
  RouterOptions options = Topology(2, 1);
  options.hop.latency_micros = 50'000;
  options.hop.jitter_fraction = 0.0;
  auto router = dt_->MakeShardRouter(options);
  ASSERT_TRUE(router.ok()) << router.status();
  server::QueryRequest request = Request(core::MakeQuerySql(
      core::QueryKind::kSubtreeProteins, dt_->tree().root(), dt_->tree(),
      core::WorkloadParams()));
  // The hop-adjusted sub-deadline is already in the past at dispatch, so
  // every shard cancels deterministically before running anything.
  request.deadline_micros = clock_->NowMicros() + 1'000;
  auto out = (*router)->Submit(request);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCancelled()) << out.status();
  EXPECT_GE((*router)->shard_counters(0).deadline_missed, 1);
  auto counters = (*router)->route_counters();
  EXPECT_EQ(counters.failed, 1);
  (*router)->Drain();
}

TEST_F(ShardTest, ScatterGatherTimelineIsDeterministic) {
  auto run = [](std::vector<obs::TraceRecord>* records, int64_t* end_micros) {
    util::SimulatedClock clock;
    auto built = core::DrugTree::Build(SmallBuild(), &clock);
    ASSERT_TRUE(built.ok()) << built.status();
    auto router = (*built)->MakeShardRouter(Topology(4, 2));
    ASSERT_TRUE(router.ok()) << router.status();
    core::WorkloadParams params;
    const phylo::Tree& tree = (*built)->tree();
    std::vector<phylo::NodeId> internals;
    tree.PreOrder([&](phylo::NodeId id) {
      if (!tree.node(id).IsLeaf()) internals.push_back(id);
    });
    for (size_t i = 0; i < internals.size() && i < 8; ++i) {
      auto out = (*router)->Submit(server::QueryRequest{
          1,
          core::MakeQuerySql(core::QueryKind::kSubtreeProteins, internals[i],
                             tree, params),
          server::QueryClass::kInteractive, 0, 0, query::PlannerOptions()});
      ASSERT_TRUE(out.ok()) << out.status();
    }
    (*router)->Drain();
    *records = (*router)->trace_store()->Snapshot();
    *end_micros = clock.NowMicros();
  };

  std::vector<obs::TraceRecord> a, b;
  int64_t end_a = 0, end_b = 0;
  run(&a, &end_a);
  run(&b, &end_b);
  EXPECT_EQ(end_a, end_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_id, b[i].trace_id);
    EXPECT_EQ(a[i].begin_micros, b[i].begin_micros);
    EXPECT_EQ(a[i].end_micros, b[i].end_micros);
    for (int p = 0; p < obs::kNumTracePhases; ++p) {
      const auto phase = static_cast<obs::TracePhase>(p);
      EXPECT_EQ(a[i].PhaseMicros(phase), b[i].PhaseMicros(phase));
    }
    ASSERT_EQ(a[i].fetches.size(), b[i].fetches.size());
    for (size_t f = 0; f < a[i].fetches.size(); ++f) {
      EXPECT_EQ(a[i].fetches[f].start_micros, b[i].fetches[f].start_micros);
      EXPECT_EQ(a[i].fetches[f].end_micros, b[i].fetches[f].end_micros);
    }
    EXPECT_GT(a[i].PhaseMicros(obs::TracePhase::kGather), 0)
        << "record " << i;
  }
}

TEST_F(ShardTest, StatuszAndObservabilitySurfaces) {
  auto router = dt_->MakeShardRouter(Topology(2, 2));
  ASSERT_TRUE(router.ok()) << router.status();
  auto out = (*router)->Submit(Request(core::MakeQuerySql(
      core::QueryKind::kSubtreeProteins, dt_->tree().root(), dt_->tree(),
      core::WorkloadParams())));
  ASSERT_TRUE(out.ok()) << out.status();
  (*router)->Drain();

  std::string statusz = (*router)->Statusz();
  for (const char* key :
       {"\"router\"", "\"topology\"", "\"decisions\"", "\"coordinator\"",
        "\"id\":\"s0r0\"", "\"id\":\"s1r1\"",
        "\"shard\":{\"id\":\"s0r0\",\"role\":\"replica\"}",
        "\"pre_lo\":0"}) {
    EXPECT_NE(statusz.find(key), std::string::npos) << key;
  }
  // Single-node servers keep the shard-free Statusz shape.
  auto standalone = dt_->MakeServer();
  EXPECT_NE(standalone->Statusz().find("\"shard\":{\"id\":\"\",\"role\":"
                                       "\"standalone\"}"),
            std::string::npos);

  std::string chrome = (*router)->ExportChromeTrace();
  EXPECT_NE(chrome.find("s0r0/"), std::string::npos);
  EXPECT_NE(chrome.find("router"), std::string::npos);

  std::string tail = (*router)->TailAttributionReport();
  EXPECT_NE(tail.find("slowest shard"), std::string::npos) << tail;
}

TEST(HopCostEwmaTest, FirstObservationSeedsDirectly) {
  std::atomic<int64_t> ewma{0};
  // A cold shard adopts the first round-trip outright instead of averaging
  // up from zero over several requests.
  EXPECT_EQ(UpdateHopCostEwma(ewma, 400), 400);
  EXPECT_EQ(ewma.load(), 400);
  // Subsequent observations fold in at alpha = 1/4.
  EXPECT_EQ(UpdateHopCostEwma(ewma, 800), 500);  // (3*400 + 800) / 4
  EXPECT_EQ(ewma.load(), 500);
}

TEST(HopCostEwmaTest, ConcurrentUpdatesNeverLoseObservations) {
  std::atomic<int64_t> ewma{0};
  constexpr int kThreads = 8;
  constexpr int kUpdates = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ewma] {
      for (int i = 0; i < kUpdates; ++i) {
        UpdateHopCostEwma(ewma, 500);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every fold of a constant series converges to (and stays at) the
  // constant; with the CAS loop no interleaving can leave anything else.
  EXPECT_EQ(ewma.load(), 500);
}

}  // namespace
}  // namespace shard
}  // namespace drugtree
