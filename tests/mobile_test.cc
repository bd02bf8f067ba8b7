#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/drugtree.h"
#include "mobile/client_cache.h"
#include "mobile/device.h"
#include "mobile/lod.h"
#include "mobile/protocol.h"
#include "mobile/session.h"
#include "mobile/trace.h"
#include "mobile/viewport.h"
#include "phylo/newick.h"
#include "util/clock.h"
#include "util/rng.h"

namespace drugtree {
namespace mobile {
namespace {

using phylo::NodeId;

struct TreeBundle {
  phylo::Tree tree;
  std::unique_ptr<phylo::TreeIndex> index;
  std::unique_ptr<phylo::TreeLayout> layout;
};

TreeBundle MakeBalancedTree(int levels) {
  TreeBundle b;
  NodeId root = *b.tree.AddRoot();
  std::vector<NodeId> frontier = {root};
  int leaf = 0;
  for (int level = 0; level < levels; ++level) {
    std::vector<NodeId> next;
    for (NodeId parent : frontier) {
      for (int c = 0; c < 2; ++c) {
        std::string name = level + 1 == levels
                               ? "L" + std::to_string(leaf++)
                               : "";
        next.push_back(*b.tree.AddChild(parent, name, 1.0));
      }
    }
    frontier = std::move(next);
  }
  b.index = std::make_unique<phylo::TreeIndex>(
      std::move(*phylo::TreeIndex::Build(b.tree)));
  b.layout = std::make_unique<phylo::TreeLayout>(
      std::move(*phylo::TreeLayout::Compute(b.tree)));
  return b;
}

TEST(ViewportTest, FullExtentCoversLayout) {
  auto b = MakeBalancedTree(4);
  Viewport v = Viewport::FullExtent(*b.layout);
  EXPECT_DOUBLE_EQ(v.x0, 0.0);
  EXPECT_DOUBLE_EQ(v.y0, 0.0);
  EXPECT_DOUBLE_EQ(v.x1, b.layout->max_x());
  EXPECT_DOUBLE_EQ(v.y1, b.layout->max_y());
}

TEST(ViewportTest, PanClampsAtEdges) {
  auto b = MakeBalancedTree(4);
  Viewport v = Viewport::FullExtent(*b.layout);
  v.Zoom(0.5, *b.layout);
  double w = v.Width();
  v.Pan(-1000, -1000, *b.layout);
  EXPECT_DOUBLE_EQ(v.x0, 0.0);
  EXPECT_DOUBLE_EQ(v.y0, 0.0);
  EXPECT_NEAR(v.Width(), w, 1e-9);
  v.Pan(1e9, 1e9, *b.layout);
  EXPECT_DOUBLE_EQ(v.x1, b.layout->max_x());
  EXPECT_DOUBLE_EQ(v.y1, b.layout->max_y());
}

TEST(ViewportTest, ZoomInShrinksWindow) {
  auto b = MakeBalancedTree(4);
  Viewport v = Viewport::FullExtent(*b.layout);
  double w = v.Width(), h = v.Height();
  v.Zoom(0.5, *b.layout);
  EXPECT_LT(v.Width(), w);
  EXPECT_LT(v.Height(), h);
  v.Zoom(10.0, *b.layout);  // zoom far out clamps to layout
  EXPECT_LE(v.Width(), b.layout->max_x() + 1e-9);
}

TEST(ViewportTest, CenterOnNode) {
  auto b = MakeBalancedTree(4);
  Viewport v = Viewport::FullExtent(*b.layout);
  NodeId leaf = b.tree.Leaves()[5];
  v.CenterOn(b.layout->position(leaf), 2.0, 4.0, *b.layout);
  EXPECT_TRUE(v.Contains(b.layout->position(leaf).x,
                         b.layout->position(leaf).y));
}

TEST(LodTest, FullCutShipsEveryNode) {
  auto b = MakeBalancedTree(5);
  auto cut = FullTreeCut(b.tree, *b.index, *b.layout, {});
  EXPECT_EQ(cut.size(), b.tree.NumNodes());
  for (const auto& n : cut) EXPECT_FALSE(n.collapsed);
}

TEST(LodTest, TightBudgetCollapses) {
  auto b = MakeBalancedTree(7);  // 255 nodes
  Viewport v = Viewport::FullExtent(*b.layout);
  LodParams params;
  params.min_subtree_pixels = 200;  // brutal: almost everything collapses
  params.screen_height_px = 480;
  auto cut = ComputeLodCut(b.tree, *b.index, *b.layout, v, {}, params);
  ASSERT_TRUE(cut.ok());
  EXPECT_LT(cut->size(), b.tree.NumNodes() / 4);
  bool any_collapsed = false;
  for (const auto& n : *cut) any_collapsed |= n.collapsed;
  EXPECT_TRUE(any_collapsed);
}

TEST(LodTest, EveryLeafRepresented) {
  // Coverage property: every leaf must be inside the subtree of some shipped
  // node (expanded leaf or collapsed marker).
  auto b = MakeBalancedTree(6);
  Viewport v = Viewport::FullExtent(*b.layout);
  LodParams params;
  params.min_subtree_pixels = 60;
  auto cut = ComputeLodCut(b.tree, *b.index, *b.layout, v, {}, params);
  ASSERT_TRUE(cut.ok());
  for (NodeId leaf : b.tree.Leaves()) {
    bool covered = false;
    for (const auto& n : *cut) {
      if (b.index->IsAncestor(n.id, leaf) &&
          (n.collapsed || n.id == leaf)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "leaf " << leaf;
  }
}

TEST(LodTest, ZoomRevealsMoreDetail) {
  auto b = MakeBalancedTree(7);
  LodParams params;
  params.min_subtree_pixels = 12;
  params.screen_height_px = 480;
  Viewport full = Viewport::FullExtent(*b.layout);
  auto far_cut = ComputeLodCut(b.tree, *b.index, *b.layout, full, {}, params);
  ASSERT_TRUE(far_cut.ok());
  // Zoom into the first quarter of the leaf band.
  Viewport zoomed = full;
  zoomed.y1 = full.y1 / 4;
  auto near_cut =
      ComputeLodCut(b.tree, *b.index, *b.layout, zoomed, {}, params);
  ASSERT_TRUE(near_cut.ok());
  // Zoomed view shows deeper nodes: its max depth exceeds the overview's.
  auto max_depth = [&](const std::vector<LodNode>& cut) {
    int d = 0;
    for (const auto& n : cut) d = std::max(d, int(b.index->Depth(n.id)));
    return d;
  };
  EXPECT_GT(max_depth(*near_cut), max_depth(*far_cut));
}

TEST(LodTest, MaxNodesBudgetRespected) {
  auto b = MakeBalancedTree(8);
  Viewport v = Viewport::FullExtent(*b.layout);
  LodParams params;
  params.min_subtree_pixels = 0.001;
  params.max_nodes = 50;
  auto cut = ComputeLodCut(b.tree, *b.index, *b.layout, v, {}, params);
  ASSERT_TRUE(cut.ok());
  EXPECT_LE(cut->size(), 50u);
}

TEST(LodTest, AnnotationCarried) {
  auto b = MakeBalancedTree(3);
  std::vector<double> ann(b.tree.NumNodes(), 0.0);
  ann[0] = 7.5;
  auto cut = FullTreeCut(b.tree, *b.index, *b.layout, ann);
  EXPECT_DOUBLE_EQ(cut[0].annotation, 7.5);
}

TEST(LodTest, InvalidParamsRejected) {
  auto b = MakeBalancedTree(3);
  Viewport v = Viewport::FullExtent(*b.layout);
  LodParams bad;
  bad.max_nodes = 0;
  EXPECT_TRUE(ComputeLodCut(b.tree, *b.index, *b.layout, v, {}, bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(ProtocolTest, DeltaSkipsCachedNodes) {
  auto b = MakeBalancedTree(4);
  auto cut = FullTreeCut(b.tree, *b.index, *b.layout, {});
  std::unordered_set<int64_t> expanded;
  for (size_t i = 0; i < cut.size() / 2; ++i) expanded.insert(cut[i].id);
  Frame with_delta = BuildFrame(cut, {}, expanded, true);
  Frame without = BuildFrame(cut, {}, expanded, false);
  EXPECT_EQ(with_delta.delta_skipped, cut.size() / 2);
  EXPECT_EQ(with_delta.nodes.size(), cut.size() - cut.size() / 2);
  EXPECT_EQ(without.nodes.size(), cut.size());
  EXPECT_LT(with_delta.bytes, without.bytes);
}

TEST(ProtocolTest, CollapsedStateDistinguished) {
  LodNode n;
  n.id = 5;
  n.collapsed = true;
  // Client holds node 5 in *expanded* form: a collapsed version must ship.
  Frame f = BuildFrame({n}, {}, {5}, true);
  EXPECT_EQ(f.nodes.size(), 1u);
  // Client holds it collapsed: skip.
  Frame f2 = BuildFrame({n}, {5}, {}, true);
  EXPECT_EQ(f2.nodes.size(), 0u);
  EXPECT_EQ(f2.delta_skipped, 1u);
}

TEST(ClientCacheTest, InstallAndQuerySets) {
  ClientCache cache(10 * kBytesPerNode);
  LodNode a;
  a.id = 1;
  a.collapsed = false;
  LodNode bnode;
  bnode.id = 2;
  bnode.collapsed = true;
  cache.Install({a, bnode});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.ExpandedIds().count(1));
  EXPECT_TRUE(cache.CollapsedIds().count(2));
  EXPECT_FALSE(cache.CollapsedIds().count(1));
}

TEST(ClientCacheTest, BudgetEnforced) {
  ClientCache cache(5 * kBytesPerNode);
  std::vector<LodNode> nodes(20);
  for (int i = 0; i < 20; ++i) nodes[static_cast<size_t>(i)].id = i;
  cache.Install(nodes);
  EXPECT_LE(cache.size(), 5u);
}

// Brute-force model of the client cache: an MRU-first list of (id,
// collapsed) bounded at `capacity` nodes, with the held-id sets derived from
// scratch each time.
class LruModel {
 public:
  explicit LruModel(size_t capacity) : capacity_(capacity) {}

  void Install(const std::vector<LodNode>& nodes) {
    for (const LodNode& n : nodes) {
      entries_.remove_if(
          [&](const std::pair<int64_t, bool>& e) { return e.first == n.id; });
      entries_.emplace_front(n.id, n.collapsed);
      if (entries_.size() > capacity_) entries_.pop_back();
    }
  }
  void Clear() { entries_.clear(); }
  std::set<int64_t> Ids(bool collapsed) const {
    std::set<int64_t> out;
    for (const auto& [id, c] : entries_) {
      if (c == collapsed) out.insert(id);
    }
    return out;
  }
  size_t size() const { return entries_.size(); }

 private:
  size_t capacity_;
  std::list<std::pair<int64_t, bool>> entries_;
};

std::set<int64_t> Sorted(const std::unordered_set<int64_t>& ids) {
  return std::set<int64_t>(ids.begin(), ids.end());
}

void ExpectSameSets(const ClientCache& cache, const LruModel& model) {
  EXPECT_EQ(Sorted(cache.CollapsedIds()), model.Ids(true));
  EXPECT_EQ(Sorted(cache.ExpandedIds()), model.Ids(false));
  EXPECT_EQ(cache.size(), model.size());
}

TEST(ClientCacheTest, HeldSetsMatchBruteForceLruModel) {
  ClientCache cache(5 * kBytesPerNode);
  LruModel model(5);
  util::Rng rng(17);
  for (int step = 0; step < 2000; ++step) {
    if (rng.Uniform(50) == 0) {
      cache.Clear();
      model.Clear();
      ExpectSameSets(cache, model);
      continue;
    }
    // Few distinct ids, so re-installs (often with a flipped collapsed
    // flag) and evictions are both frequent.
    std::vector<LodNode> nodes(rng.Uniform(8));
    for (LodNode& n : nodes) {
      n.id = static_cast<int64_t>(rng.Uniform(12));
      n.collapsed = rng.Uniform(2) == 0;
    }
    cache.Install(nodes);
    model.Install(nodes);
    ExpectSameSets(cache, model);
    if (HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step;
      return;
    }
  }
}

TEST(ClientCacheTest, ReinstallWithFlippedFlagMovesTheId) {
  ClientCache cache(5 * kBytesPerNode);
  LodNode n;
  n.id = 7;
  n.collapsed = false;
  cache.Install({n});
  n.collapsed = true;
  cache.Install({n});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.CollapsedIds().count(7));
  EXPECT_FALSE(cache.ExpandedIds().count(7));
  cache.Clear();
  EXPECT_TRUE(cache.CollapsedIds().empty());
  EXPECT_TRUE(cache.ExpandedIds().empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceTest, StartsWithInitialLoadAndIsDeterministic) {
  auto b = MakeBalancedTree(5);
  TraceParams params;
  params.num_actions = 30;
  util::Rng r1(5), r2(5);
  auto t1 = GenerateTrace(b.tree, *b.index, params, &r1);
  auto t2 = GenerateTrace(b.tree, *b.index, params, &r2);
  ASSERT_EQ(t1.size(), 30u);
  EXPECT_EQ(t1[0].kind, ActionKind::kInitialLoad);
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].kind, t2[i].kind);
    EXPECT_EQ(t1[i].node, t2[i].node);
  }
}

TEST(TraceTest, NodesAreValid) {
  auto b = MakeBalancedTree(5);
  TraceParams params;
  params.num_actions = 100;
  util::Rng rng(11);
  auto trace = GenerateTrace(b.tree, *b.index, params, &rng);
  for (const auto& a : trace) {
    if (a.kind == ActionKind::kFocusNode ||
        a.kind == ActionKind::kOverlayQuery) {
      EXPECT_TRUE(b.tree.Contains(a.node));
    }
  }
}

TEST(SessionTest, RunsAndMeasures) {
  auto b = MakeBalancedTree(6);
  util::SimulatedClock clock;
  SessionOptions opts;
  MobileSession session(&b.tree, b.index.get(), b.layout.get(), {},
                        DeviceProfile::TabletWifi(), &clock, opts);
  TraceParams tp;
  tp.num_actions = 20;
  util::Rng rng(3);
  auto trace = GenerateTrace(b.tree, *b.index, tp, &rng);
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->latency_ms.count(), 20);
  EXPECT_GT(report->bytes_shipped, 0u);
  EXPECT_GT(report->frames, 0u);
  EXPECT_GT(report->total_session_micros, 0);
  EXPECT_FALSE(report->ToString().empty());
}

TEST(SessionTest, ProgressiveLodShipsFewerBytesThanFull) {
  auto b = MakeBalancedTree(9);  // 1023 nodes
  TraceParams tp;
  tp.num_actions = 15;
  util::Rng rng(7);
  auto trace = GenerateTrace(b.tree, *b.index, tp, &rng);

  auto run = [&](bool lod, bool delta) {
    util::SimulatedClock clock;
    SessionOptions opts;
    opts.progressive_lod = lod;
    opts.delta_encoding = delta;
    MobileSession session(&b.tree, b.index.get(), b.layout.get(), {},
                          DeviceProfile::Phone3G(), &clock, opts);
    auto report = session.Run(trace);
    EXPECT_TRUE(report.ok());
    return *report;
  };
  auto full = run(false, false);
  auto lod = run(true, true);
  EXPECT_LT(lod.bytes_shipped, full.bytes_shipped / 2);
  EXPECT_LT(lod.latency_ms.Mean(), full.latency_ms.Mean());
}

TEST(SessionTest, DeltaEncodingSkipsRepeats) {
  auto b = MakeBalancedTree(7);
  // Trace that repeats the same view: second initial load is all-cached.
  std::vector<Action> trace = {{ActionKind::kInitialLoad, b.tree.root(), 0, 0},
                               {ActionKind::kInitialLoad, b.tree.root(), 0, 0}};
  util::SimulatedClock clock;
  SessionOptions opts;
  MobileSession session(&b.tree, b.index.get(), b.layout.get(), {},
                        DeviceProfile::TabletWifi(), &clock, opts);
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->nodes_delta_skipped, 0u);
}

TEST(SessionTest, OverlayQueryCallbackInvoked) {
  auto b = MakeBalancedTree(5);
  util::SimulatedClock clock;
  int calls = 0;
  OverlayQueryFn fn = [&](NodeId) -> util::Result<uint64_t> {
    ++calls;
    return uint64_t{1000};
  };
  SessionOptions opts;
  MobileSession session(&b.tree, b.index.get(), b.layout.get(), {},
                        DeviceProfile::TabletWifi(), &clock, opts, fn);
  std::vector<Action> trace = {
      {ActionKind::kInitialLoad, b.tree.root(), 0, 0},
      {ActionKind::kOverlayQuery, b.tree.root(), 0, 0}};
  auto report = session.Run(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(calls, 1);
}

// Golden session figures on a virtual clock. Every number below was recorded
// with the client cache rebuilding its held-id sets from the LRU on every
// frame; keeping the sets up to date incrementally must not move any of
// them. The second device's 64-node cache evicts on most frames.
SessionReport RunGoldenSession(const DeviceProfile& device) {
  auto b = MakeBalancedTree(8);  // 511 nodes
  TraceParams tp;
  tp.num_actions = 2000;
  util::Rng rng(2024);
  auto trace = GenerateTrace(b.tree, *b.index, tp, &rng);
  util::SimulatedClock clock;
  SessionOptions opts;
  opts.charge_real_compute = false;
  MobileSession session(&b.tree, b.index.get(), b.layout.get(), {}, device,
                        &clock, opts);
  auto report = session.Run(trace);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : SessionReport();
}

TEST(SessionGoldenTest, Phone3G) {
  SessionReport r = RunGoldenSession(DeviceProfile::Phone3G());
  EXPECT_EQ(r.bytes_shipped, 372096u);
  EXPECT_EQ(r.nodes_shipped, 1632u);
  EXPECT_EQ(r.nodes_delta_skipped, 33501u);
  EXPECT_EQ(r.frames, 1705u);
  EXPECT_EQ(r.total_session_micros, 1504753373);
  EXPECT_EQ(r.latency_ms.Percentile(50), 252.31965753656178);
  EXPECT_EQ(r.latency_ms.Percentile(99), 329.12621734299881);
}

TEST(SessionGoldenTest, EvictingSixtyFourNodeCache) {
  DeviceProfile device = DeviceProfile::Phone3G();
  device.cache_bytes = 64 * kBytesPerNode;
  SessionReport r = RunGoldenSession(device);
  EXPECT_EQ(r.bytes_shipped, 645312u);
  EXPECT_EQ(r.nodes_shipped, 7324u);
  EXPECT_EQ(r.nodes_delta_skipped, 27809u);
  EXPECT_EQ(r.frames, 1705u);
  EXPECT_EQ(r.total_session_micros, 1507280621);
  EXPECT_EQ(r.latency_ms.Percentile(50), 253.49904310855862);
  EXPECT_EQ(r.latency_ms.Percentile(99), 329.34121663807946);
}

// The mobile_browse shape in miniature: four served sessions (two phones,
// two tablets), each on its own thread and simulated clock, share one
// real-clock DrugTreeServer with no overlay deadline, so no overlay may be
// shed or cancelled and every visit's report must account for each action.
TEST(ServedSessionsTest, FourThreadsShareOneServer) {
  util::SimulatedClock build_clock;
  core::BuildOptions build;
  build.seed = 7;
  build.num_families = 3;
  build.taxa_per_family = 10;
  build.sequence_length = 90;
  build.num_ligands = 120;
  auto built = core::DrugTree::Build(build, &build_clock);
  ASSERT_TRUE(built.ok()) << built.status();
  core::DrugTree* dt = built->get();
  auto server =
      dt->MakeServer(server::ServerOptions(), util::RealClock::Instance());

  constexpr int kSessions = 4;
  constexpr int kVisits = 4;
  constexpr int kVisitActions = 40;
  const DeviceProfile devices[kSessions] = {
      DeviceProfile::Phone3G(), DeviceProfile::TabletWifi(),
      DeviceProfile::Phone3G(), DeviceProfile::TabletWifi()};
  std::vector<std::unique_ptr<util::SimulatedClock>> clocks;
  std::vector<std::unique_ptr<MobileSession>> sessions;
  std::vector<std::vector<Action>> traces;
  for (int s = 0; s < kSessions; ++s) {
    clocks.push_back(std::make_unique<util::SimulatedClock>());
    ServedQueryConfig served;
    served.server = server.get();
    served.session_id = static_cast<uint64_t>(s + 1);
    served.overlay_deadline_micros = 0;
    served.overlay_sql = [dt](NodeId node) {
      return dt->OverlayQuerySql(node);
    };
    sessions.push_back(std::make_unique<MobileSession>(
        &dt->tree(), &dt->tree_index(), &dt->layout(),
        dt->overlay()->AnnotationVector(), devices[s], clocks.back().get(),
        SessionOptions(), nullptr, std::move(served)));
    TraceParams tp;
    tp.num_actions = kVisits * kVisitActions;
    traces.push_back(dt->MakeTrace(tp, 100 + static_cast<uint64_t>(s)));
  }

  struct Totals {
    int inconsistent = 0;
    int errors = 0;
    uint64_t overlays = 0;
    uint64_t shed = 0;
    uint64_t deadline_missed = 0;
  };
  Totals totals[kSessions];
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      for (int v = 0; v < kVisits; ++v) {
        std::vector<Action> visit(
            traces[s].begin() + v * kVisitActions,
            traces[s].begin() + (v + 1) * kVisitActions);
        util::Result<SessionReport> report = sessions[s]->Run(visit);
        if (!report.ok()) {
          ++totals[s].errors;
          continue;
        }
        if (report->frames + report->overlay_queries != visit.size()) {
          ++totals[s].inconsistent;
        }
        totals[s].overlays += report->overlay_queries;
        totals[s].shed += report->overlay_shed;
        totals[s].deadline_missed += report->overlay_deadline_missed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t overlays = 0;
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(totals[s].errors, 0) << "session " << s;
    EXPECT_EQ(totals[s].inconsistent, 0) << "session " << s;
    EXPECT_EQ(totals[s].shed, 0u) << "session " << s;
    EXPECT_EQ(totals[s].deadline_missed, 0u) << "session " << s;
    overlays += totals[s].overlays;
  }
  EXPECT_GT(overlays, 0u);
  EXPECT_EQ(server->counters(server::QueryClass::kInteractive).shed, 0);

  // A sampled overlay focus (one small enough that LIMIT 50 cuts no tied
  // rows), served by the shared server, against the naive planner.
  NodeId sample = -1;
  for (const std::vector<Action>& trace : traces) {
    for (const Action& a : trace) {
      if (a.kind == ActionKind::kOverlayQuery &&
          dt->tree_index().SubtreeSize(a.node) < 50) {
        sample = a.node;
        break;
      }
    }
    if (sample >= 0) break;
  }
  ASSERT_GE(sample, 0);
  server::QueryRequest request;
  request.session_id = 99;
  request.sql = dt->OverlayQuerySql(sample);
  auto got = server->Submit(std::move(request));
  ASSERT_TRUE(got.ok()) << got.status();
  auto want = dt->Query(dt->OverlayQuerySql(sample),
                        query::PlannerOptions::Naive());
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(got->result.columns, want->result.columns);
  std::vector<storage::Row> got_rows = got->result.rows;
  std::vector<storage::Row> want_rows = want->result.rows;
  std::sort(got_rows.begin(), got_rows.end());
  std::sort(want_rows.begin(), want_rows.end());
  EXPECT_FALSE(want_rows.empty());
  EXPECT_EQ(got_rows, want_rows);
}

TEST(DeviceTest, ProfilesOrdered) {
  auto phone = DeviceProfile::Phone3G();
  auto tablet = DeviceProfile::TabletWifi();
  auto desktop = DeviceProfile::DesktopLan();
  EXPECT_GT(phone.link.latency_micros, tablet.link.latency_micros);
  EXPECT_GT(tablet.link.latency_micros, desktop.link.latency_micros);
  EXPECT_LT(phone.link.bandwidth_bytes_per_sec,
            desktop.link.bandwidth_bytes_per_sec);
}

}  // namespace
}  // namespace mobile
}  // namespace drugtree
