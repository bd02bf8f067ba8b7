// E5 (Table 2): tree-construction cost and accuracy — UPGMA vs
// neighbor-joining across taxa counts, on clock-like and non-clock-like
// evolved families, scored by normalized Robinson-Foulds distance to the
// generating tree — plus the k-mer distance matrix that feeds them.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bio/distance.h"
#include "bio/synthetic.h"
#include "phylo/builder.h"
#include "phylo/newick.h"
#include "phylo/tree_metrics.h"

namespace {

using namespace drugtree;

struct Family {
  bio::DistanceMatrix dist;
  phylo::Tree truth;
};

Family* GetFamily(int taxa, bool clock_like) {
  static std::map<std::pair<int, bool>, Family*> cache;
  auto key = std::make_pair(taxa, clock_like);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  util::Rng rng(static_cast<uint64_t>(taxa) * 2 + clock_like);
  bio::EvolutionParams ep;
  ep.num_taxa = taxa;
  ep.sequence_length = 200;
  ep.clock_like = clock_like;
  ep.indel_probability = 0.0;
  auto fam = bio::EvolveFamily(ep, &rng);
  DT_CHECK(fam.ok());
  auto* f = new Family();
  auto dist = bio::KmerDistanceMatrix(fam->sequences, 3);
  DT_CHECK(dist.ok());
  f->dist = std::move(*dist);
  auto truth = phylo::ParseNewick(fam->true_tree_newick);
  DT_CHECK(truth.ok());
  f->truth = std::move(*truth);
  cache[key] = f;
  return f;
}

void BM_Upgma(benchmark::State& state) {
  Family* f = GetFamily(static_cast<int>(state.range(0)), false);
  for (auto _ : state) {
    auto tree = phylo::BuildUpgma(f->dist);
    DT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
}

void BM_NeighborJoining(benchmark::State& state) {
  Family* f = GetFamily(static_cast<int>(state.range(0)), false);
  for (auto _ : state) {
    auto tree = phylo::BuildNeighborJoining(f->dist);
    DT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
}

// The catalog's shape: families of 64 evolved taxa at length 120.
const std::vector<bio::Sequence>& CatalogSequences(int taxa) {
  static std::map<int, std::vector<bio::Sequence>> cache;
  auto it = cache.find(taxa);
  if (it != cache.end()) return it->second;
  util::Rng rng(static_cast<uint64_t>(taxa));
  std::vector<bio::Sequence> seqs;
  for (int f = 0; f * 64 < taxa; ++f) {
    bio::EvolutionParams ep;
    ep.num_taxa = 64;
    ep.sequence_length = 120;
    ep.id_prefix = "F" + std::to_string(f) + "_";
    auto fam = bio::EvolveFamily(ep, &rng);
    DT_CHECK(fam.ok());
    for (auto& s : fam->sequences) seqs.push_back(std::move(s));
  }
  return cache[taxa] = std::move(seqs);
}

void BM_KmerDistanceMatrix(benchmark::State& state) {
  const auto& seqs = CatalogSequences(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto dist = bio::KmerDistanceMatrix(seqs, 3);
    DT_CHECK(dist.ok());
    benchmark::DoNotOptimize(dist);
  }
}

void AccuracyTable() {
  std::printf("\n-- reconstruction accuracy (normalized RF; lower = better) --\n");
  std::printf("%6s %12s %12s %12s %12s\n", "taxa", "UPGMA/clock",
              "NJ/clock", "UPGMA/free", "NJ/free");
  for (int taxa : {16, 32, 64}) {
    double cells[4];
    int c = 0;
    for (bool clock_like : {true, false}) {
      Family* f = GetFamily(taxa, clock_like);
      for (auto method :
           {phylo::TreeMethod::kUpgma, phylo::TreeMethod::kNeighborJoining}) {
        auto tree = phylo::BuildTree(f->dist, method);
        DT_CHECK(tree.ok());
        auto nrf = phylo::NormalizedRobinsonFoulds(*tree, f->truth);
        DT_CHECK(nrf.ok());
        cells[c++] = *nrf;
      }
    }
    std::printf("%6d %12.3f %12.3f %12.3f %12.3f\n", taxa, cells[0], cells[1],
                cells[2], cells[3]);
  }
  std::printf("shape check: NJ >= UPGMA accuracy off the clock; both cheap\n"
              "at DrugTree scales, NJ cost grows ~n^3.\n");
}

}  // namespace

BENCHMARK(BM_Upgma)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NeighborJoining)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KmerDistanceMatrix)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  drugtree::bench::Banner("E5 (Table 2)",
                          "tree construction: UPGMA vs neighbor-joining\n"
                          "(build cost + reconstruction accuracy) and the\n"
                          "k-mer distance matrix they are built from");
  auto metrics_flag = drugtree::bench::ParseMetricsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  AccuracyTable();
  drugtree::bench::DumpMetrics(metrics_flag);
  return 0;
}
