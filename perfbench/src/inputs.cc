#include "inputs.h"

#include <cmath>

#include "util/rng.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, const char* tag, uint64_t index) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the tag
  for (const char* p = tag; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ULL;
  }
  return SplitMix(SplitMix(seed ^ h) + index);
}

core::BuildOptions MakeBuildOptions(const Scale& scale, uint64_t seed) {
  core::BuildOptions options;
  options.seed = StreamSeed(seed, "catalog", 0);
  options.num_families = scale.families;
  options.taxa_per_family = scale.taxa_per_family;
  options.num_ligands = scale.ligands;
  return options;
}

std::vector<mobile::Action> MakeMobileTrace(const core::DrugTree& dt,
                                            uint64_t seed, int session,
                                            int num_actions) {
  mobile::TraceParams params;
  params.num_actions = num_actions;
  params.locality = 0.8;
  util::Rng rng(StreamSeed(seed, "mobile", static_cast<uint64_t>(session)));
  return mobile::GenerateTrace(dt.tree(), dt.tree_index(), params, &rng);
}

std::vector<TimedQuery> MakeAnalystStream(const core::DrugTree& dt,
                                          uint64_t seed, double rate_per_s,
                                          int num_queries) {
  core::WorkloadParams params;
  params.num_queries = num_queries;
  util::Rng rng(StreamSeed(seed, "analyst", 0));
  std::vector<core::WorkloadQuery> queries =
      core::GenerateWorkload(dt.tree(), dt.tree_index(), params, &rng);
  util::Rng arrivals(StreamSeed(seed, "arrivals", 0));
  std::vector<TimedQuery> out;
  out.reserve(queries.size());
  double t_s = 0.0;
  for (core::WorkloadQuery& q : queries) {
    t_s += arrivals.NextExponential(rate_per_s);
    out.push_back({std::move(q), static_cast<int64_t>(t_s * 1e6)});
  }
  return out;
}

std::vector<ActivityWrite> MakeWriteBatch(
    uint64_t seed, uint64_t batch, int size,
    const std::vector<std::string>& accessions,
    const std::vector<std::string>& ligand_ids) {
  util::Rng rng(StreamSeed(seed, "writes", batch));
  std::vector<ActivityWrite> out;
  out.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    ActivityWrite w;
    w.accession = accessions[rng.Zipf(accessions.size(), 0.7)];
    w.ligand_id = ligand_ids[rng.Uniform(ligand_ids.size())];
    w.affinity_nm = std::pow(10.0, rng.UniformDouble(0.0, 4.0));
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace perfbench
