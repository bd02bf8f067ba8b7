// Core facade tests: overlay correctness, end-to-end DrugTree behaviour, the
// naive-vs-optimized equivalence property over generated workloads, and
// incremental updates.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>

#include "core/drugtree.h"
#include "core/workload.h"
#include "phylo/newick.h"
#include "util/clock.h"

namespace drugtree {
namespace core {
namespace {

using query::PlannerOptions;
using storage::Value;

class DrugTreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new util::SimulatedClock();
    BuildOptions options;
    options.seed = 99;
    options.num_families = 3;
    options.taxa_per_family = 10;
    options.sequence_length = 90;
    options.num_ligands = 120;
    auto built = DrugTree::Build(options, clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = built->release();
  }
  static void TearDownTestSuite() {
    delete dt_;
    dt_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static util::SimulatedClock* clock_;
  static DrugTree* dt_;
};

util::SimulatedClock* DrugTreeTest::clock_ = nullptr;
DrugTree* DrugTreeTest::dt_ = nullptr;

TEST_F(DrugTreeTest, BuildWiresEverything) {
  EXPECT_EQ(dt_->tree().NumLeaves(), 30u);
  EXPECT_EQ(dt_->overlay()->proteins()->NumRows(), 30);
  EXPECT_EQ(dt_->ligands()->NumRows(), 120);
  EXPECT_GT(dt_->activities()->NumRows(), 0);
  EXPECT_EQ(dt_->overlay()->tree_nodes()->NumRows(),
            static_cast<int64_t>(dt_->tree().NumNodes()));
  EXPECT_EQ(dt_->overlay()->node_overlay()->NumRows(),
            static_cast<int64_t>(dt_->tree().NumNodes()));
}

TEST_F(DrugTreeTest, EveryProteinMapsToALeaf) {
  auto* proteins = dt_->overlay()->proteins();
  auto node_col = *proteins->schema().IndexOf("node_id");
  auto acc_col = *proteins->schema().IndexOf("accession");
  for (auto rid : proteins->LiveRows()) {
    const auto& row = proteins->row(rid);
    ASSERT_FALSE(row[node_col].is_null());
    auto node = static_cast<phylo::NodeId>(row[node_col].AsInt64());
    EXPECT_TRUE(dt_->tree().node(node).IsLeaf());
    EXPECT_EQ(dt_->tree().node(node).name, row[acc_col].AsString());
  }
}

TEST_F(DrugTreeTest, OverlayAggregatesMatchBruteForce) {
  // Recompute per-node activity counts by brute force over the activities
  // table and the tree, then compare with the overlay.
  auto* acts = dt_->activities();
  auto acc_col = *acts->schema().IndexOf("accession");
  std::map<std::string, int64_t> per_leaf;
  for (auto rid : acts->LiveRows()) {
    ++per_leaf[acts->row(rid)[acc_col].AsString()];
  }
  const auto& index = dt_->tree_index();
  const auto& aggs = dt_->overlay()->aggregates();
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    auto id = static_cast<phylo::NodeId>(i);
    int64_t expected = 0;
    for (phylo::NodeId n : index.SubtreeNodes(id)) {
      if (!dt_->tree().node(n).IsLeaf()) continue;
      auto it = per_leaf.find(dt_->tree().node(n).name);
      if (it != per_leaf.end()) expected += it->second;
    }
    EXPECT_EQ(aggs[i].activity_count, expected) << "node " << id;
  }
}

TEST_F(DrugTreeTest, OverlayBestAffinityIsSubtreeMinimum) {
  auto* acts = dt_->activities();
  auto acc_col = *acts->schema().IndexOf("accession");
  auto aff_col = *acts->schema().IndexOf("affinity_nm");
  std::map<std::string, double> best_per_leaf;
  for (auto rid : acts->LiveRows()) {
    const auto& row = acts->row(rid);
    auto [it, inserted] =
        best_per_leaf.emplace(row[acc_col].AsString(), row[aff_col].AsDouble());
    if (!inserted) it->second = std::min(it->second, row[aff_col].AsDouble());
  }
  const auto& aggs = dt_->overlay()->aggregates();
  phylo::NodeId root = dt_->tree().root();
  double global_best = 1e18;
  for (const auto& [acc, best] : best_per_leaf) {
    global_best = std::min(global_best, best);
  }
  EXPECT_NEAR(aggs[static_cast<size_t>(root)].best_affinity_nm, global_best,
              1e-9);
}

TEST_F(DrugTreeTest, SubtreeQueryReturnsExactlyCladeProteins) {
  // Pick an internal node and compare the query result against TreeIndex.
  phylo::NodeId clade = dt_->tree().node(dt_->tree().root()).children[0];
  auto outcome = dt_->Query(
      "SELECT p.accession FROM proteins p WHERE SUBTREE(p.node_id, " +
      std::to_string(clade) + ") ORDER BY p.accession");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  std::vector<std::string> expected;
  for (phylo::NodeId n : dt_->tree_index().SubtreeNodes(clade)) {
    if (dt_->tree().node(n).IsLeaf()) expected.push_back(dt_->tree().node(n).name);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(outcome->result.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(outcome->result.rows[i][0].AsString(), expected[i]);
  }
}

TEST_F(DrugTreeTest, WorkloadQueriesAgreeAcrossPlans) {
  WorkloadParams wp;
  wp.num_queries = 20;
  util::Rng rng(5);
  auto workload =
      GenerateWorkload(dt_->tree(), dt_->tree_index(), wp, &rng);
  ASSERT_EQ(workload.size(), 20u);
  for (const auto& q : workload) {
    auto naive = dt_->Query(q.sql, PlannerOptions::Naive());
    auto fast = dt_->Query(q.sql, PlannerOptions::Optimized());
    ASSERT_TRUE(naive.ok()) << q.sql << ": " << naive.status();
    ASSERT_TRUE(fast.ok()) << q.sql << ": " << fast.status();
    ASSERT_EQ(naive->result.rows.size(), fast->result.rows.size()) << q.sql;
    for (size_t i = 0; i < naive->result.rows.size(); ++i) {
      EXPECT_EQ(naive->result.rows[i], fast->result.rows[i])
          << q.sql << " row " << i;
    }
  }
}

TEST_F(DrugTreeTest, OptimizedSubtreePlanTouchesFewerRows) {
  phylo::NodeId clade = dt_->tree().node(dt_->tree().root()).children[0];
  std::string sql =
      "SELECT o.node_id FROM node_overlay o WHERE SUBTREE(o.node_id, " +
      std::to_string(clade) + ")";
  auto naive = dt_->Query(sql, PlannerOptions::Naive());
  auto fast = dt_->Query(sql, PlannerOptions::Optimized());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  // Naive scans every overlay row; optimized fetches only the interval.
  EXPECT_EQ(naive->stats.rows_scanned,
            static_cast<int64_t>(dt_->tree().NumNodes()));
  EXPECT_EQ(fast->stats.rows_scanned, 0);
  EXPECT_EQ(fast->stats.rows_index_fetched,
            static_cast<int64_t>(fast->result.rows.size()));
}

TEST_F(DrugTreeTest, MakeTraceAndSessionEndToEnd) {
  mobile::TraceParams tp;
  tp.num_actions = 12;
  auto trace = dt_->MakeTrace(tp, 17);
  ASSERT_EQ(trace.size(), 12u);
  mobile::SessionOptions sopts;
  auto session = dt_->MakeSession(mobile::DeviceProfile::TabletWifi(), sopts,
                                  PlannerOptions::Optimized());
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->latency_ms.count(), 12);
  EXPECT_GT(report->bytes_shipped, 0u);
}

TEST_F(DrugTreeTest, QueryErrorsPropagate) {
  EXPECT_TRUE(dt_->Query("SELECT nope FROM proteins p").status().IsNotFound());
  EXPECT_TRUE(dt_->Query("garbage").status().IsParseError());
}

// Separate fixture (non-shared instance) for mutation tests.
class DrugTreeMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildOptions options;
    options.seed = 7;
    options.num_families = 2;
    options.taxa_per_family = 6;
    options.sequence_length = 70;
    options.num_ligands = 40;
    auto built = DrugTree::Build(options, &clock_);
    ASSERT_TRUE(built.ok()) << built.status();
    dt_ = std::move(*built);
  }

  util::SimulatedClock clock_;
  std::unique_ptr<DrugTree> dt_;
};

TEST_F(DrugTreeMutationTest, AddActivityUpdatesPathAggregates) {
  auto leaf = dt_->tree().Leaves()[2];
  const std::string acc = dt_->tree().node(leaf).name;
  const auto& index = dt_->tree_index();
  std::vector<int64_t> before;
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    before.push_back(dt_->overlay()->aggregates()[i].activity_count);
  }
  ASSERT_TRUE(dt_->AddActivity(acc, "L000001", 2.5).ok());
  for (size_t i = 0; i < dt_->tree().NumNodes(); ++i) {
    auto id = static_cast<phylo::NodeId>(i);
    int64_t expected = before[i] + (index.IsAncestor(id, leaf) ? 1 : 0);
    EXPECT_EQ(dt_->overlay()->aggregates()[i].activity_count, expected)
        << "node " << id;
  }
  // Strong new binder becomes the subtree best along the path.
  EXPECT_DOUBLE_EQ(dt_->overlay()
                       ->aggregates()[static_cast<size_t>(leaf)]
                       .best_affinity_nm,
                   2.5);
}

TEST_F(DrugTreeMutationTest, AddActivityInvalidatesResultCache) {
  PlannerOptions opts = PlannerOptions::Optimized();
  opts.use_result_cache = true;
  const char* sql = "SELECT COUNT(*) AS n FROM activities a";
  auto first = dt_->Query(sql, opts);
  ASSERT_TRUE(first.ok());
  auto cached = dt_->Query(sql, opts);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->from_result_cache);
  auto leaf_name = dt_->tree().node(dt_->tree().Leaves()[0]).name;
  ASSERT_TRUE(dt_->AddActivity(leaf_name, "L000002", 10.0).ok());
  auto after = dt_->Query(sql, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_result_cache);
  EXPECT_EQ(after->result.rows[0][0].AsInt64(),
            first->result.rows[0][0].AsInt64() + 1);
}

TEST_F(DrugTreeMutationTest, AddActivityUnknownAccessionFails) {
  EXPECT_TRUE(dt_->AddActivity("NOPE", "L000001", 5.0).IsNotFound());
  EXPECT_TRUE(dt_->AddActivity(dt_->tree().node(dt_->tree().Leaves()[0]).name,
                               "L000001", -1.0)
                  .IsInvalidArgument());
}

TEST_F(DrugTreeMutationTest, MaterializeOverlayReflectsUpdates) {
  auto leaf = dt_->tree().Leaves()[0];
  const std::string acc = dt_->tree().node(leaf).name;
  ASSERT_TRUE(dt_->AddActivity(acc, "L000003", 1.5).ok());
  ASSERT_TRUE(dt_->overlay()->MaterializeOverlayTable().ok());
  auto* overlay = dt_->overlay()->node_overlay();
  auto rows = overlay->IndexLookup("node_id", Value::Int64(leaf));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  auto best_col = *overlay->schema().IndexOf("best_affinity_nm");
  EXPECT_DOUBLE_EQ(overlay->row((*rows)[0])[best_col].AsDouble(), 1.5);
}

// Pins the catalog tree a seeded build produces. The Newick text prints
// branch lengths at %.6f, so an FNV-1a hash over every node's parent id and
// the bit pattern of its branch length pins the full bits as well. A change
// that moves either value changed the distances or the tree builder.
TEST(CatalogGoldenTest, SeededBuildTree) {
  util::SimulatedClock clock;
  BuildOptions options;
  options.seed = 2024;
  options.num_families = 4;
  options.taxa_per_family = 16;
  auto built = DrugTree::Build(options, &clock);
  ASSERT_TRUE(built.ok()) << built.status();
  const phylo::Tree& tree = (*built)->tree();
  ASSERT_EQ(tree.NumLeaves(), 64u);

  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < tree.NumNodes(); ++i) {
    const phylo::Node& n = tree.node(static_cast<phylo::NodeId>(i));
    mix(static_cast<uint64_t>(static_cast<int64_t>(n.parent)));
    uint64_t bits;
    std::memcpy(&bits, &n.branch_length, sizeof(bits));
    mix(bits);
  }
  EXPECT_EQ(hash, 18417714834844827927ull);
  EXPECT_EQ(phylo::WriteNewick(tree),
      "(((P03_0004:0.217706,P03_0005:0.228575):0.247940,((P03_0008:0.4007"
      "20,(P03_0014:0.386365,P03_0015:0.379323):0.025145):0.068091,((P03_"
      "0000:0.415847,(P03_0001:0.357594,(P03_0002:0.175772,P03_0003:0.174"
      "387):0.166004):0.058062):0.044032,((P03_0006:0.275276,P03_0007:0.2"
      "80280):0.143666,((P03_0012:0.218083,P03_0013:0.226204):0.183634,(P"
      "03_0009:0.349132,(P03_0010:0.303010,P03_0011:0.293572):0.043390):0"
      ".059984):0.015675):0.031729):0.010791):0.006559):0.011680,((P01_00"
      "12:0.436076,(P01_0013:0.400421,(P01_0003:0.316485,(P01_0000:0.1270"
      "54,P01_0002:0.129119):0.197579):0.079893):0.033258):0.040787,(((P0"
      "1_0010:0.241627,P01_0011:0.242243):0.107171,(P01_0015:0.278241,(P0"
      "1_0009:0.190054,P01_0014:0.203308):0.066499):0.081996):0.100689,(P"
      "01_0004:0.409303,(P01_0005:0.362762,(P01_0001:0.281109,(P01_0008:0"
      ".149410,(P01_0006:0.122485,P01_0007:0.125218):0.029264):0.135048):"
      "0.072876):0.038856):0.046809):0.030040):0.005898,(((P02_0014:0.441"
      "849,(P02_0004:0.355551,(P02_0003:0.263997,(P02_0002:0.157268,(P02_"
      "0009:0.124240,(P02_0008:0.082476,P02_0015:0.080098):0.035073):0.03"
      "8139):0.106041):0.081961):0.087055):0.025089,(P02_0005:0.454160,(("
      "P02_0006:0.320676,(P02_0000:0.276236,P02_0001:0.278387):0.039910):"
      "0.091714,((P02_0012:0.217469,P02_0013:0.227890):0.163355,(P02_0011"
      ":0.296023,(P02_0007:0.188665,P02_0010:0.190347):0.102785):0.096759"
      "):0.039658):0.030415):0.013121):0.023033,((P00_0014:0.325306,P00_0"
      "015:0.327539):0.153274,(((P00_0000:0.073991,P00_0001:0.071142):0.3"
      "02040,(P00_0004:0.341867,(P00_0005:0.172544,P00_0006:0.171971):0.1"
      "67979):0.042917):0.052915,((P00_0008:0.331053,(P00_0007:0.266719,("
      "P00_0013:0.099968,(P00_0009:0.044331,P00_0012:0.046454):0.044776):"
      "0.171805):0.053047):0.091761,(P00_0002:0.392638,(P00_0003:0.314359"
      ",(P00_0010:0.255808,P00_0011:0.269599):0.068066):0.068018):0.02778"
      "6):0.013856):0.042976):0.005559):0.004967);");
}

TEST(WorkloadTest, GenerationDeterministicAndWellFormed) {
  util::SimulatedClock clock;
  BuildOptions options;
  options.seed = 3;
  options.num_families = 2;
  options.taxa_per_family = 5;
  options.num_ligands = 30;
  auto dt = DrugTree::Build(options, &clock);
  ASSERT_TRUE(dt.ok());
  WorkloadParams wp;
  wp.num_queries = 25;
  util::Rng r1(9), r2(9);
  auto w1 = GenerateWorkload((*dt)->tree(), (*dt)->tree_index(), wp, &r1);
  auto w2 = GenerateWorkload((*dt)->tree(), (*dt)->tree_index(), wp, &r2);
  ASSERT_EQ(w1.size(), 25u);
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].sql, w2[i].sql);
    EXPECT_FALSE(w1[i].sql.empty());
  }
  // Every generated query must at least plan and execute.
  for (const auto& q : w1) {
    auto outcome = (*dt)->Query(q.sql);
    EXPECT_TRUE(outcome.ok()) << q.sql << ": " << outcome.status();
  }
}

}  // namespace
}  // namespace core
}  // namespace drugtree
