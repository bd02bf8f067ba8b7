// Seeded input generation. Every input a workload sends — catalog build
// options, mobile traces, analyst request streams and write batches — is a pure function of the --seed argument (plus a stream tag and
// index), so a run can be repeated exactly and rechecked on an unseen seed.
// The program under test only ever sees the generated inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/drugtree.h"
#include "core/workload.h"
#include "mobile/trace.h"

namespace perfbench {

// The DrugTree modules the benchmark calls into.
namespace bio = drugtree::bio;
namespace chem = drugtree::chem;
namespace core = drugtree::core;
namespace integration = drugtree::integration;
namespace mobile = drugtree::mobile;
namespace obs = drugtree::obs;
namespace phylo = drugtree::phylo;
namespace query = drugtree::query;
namespace server = drugtree::server;
namespace shard = drugtree::shard;
namespace storage = drugtree::storage;
namespace util = drugtree::util;

/// Catalog scale: families x taxa leaves, and the ligand library size.
struct Scale {
  int families = 8;
  int taxa_per_family = 32;
  int ligands = 300;
  int leaves() const { return families * taxa_per_family; }
};

inline constexpr Scale kSmallCatalog{8, 32, 300};    // 256 leaves
inline constexpr Scale kMediumCatalog{8, 64, 1000};  // 512 leaves

/// Derives an independent 64-bit stream seed from (seed, tag, index).
uint64_t StreamSeed(uint64_t seed, const char* tag, uint64_t index);

core::BuildOptions MakeBuildOptions(const Scale& scale, uint64_t seed);

/// One long mobile trace per session: the default action mix with
/// locality 0.8.
std::vector<mobile::Action> MakeMobileTrace(const core::DrugTree& dt,
                                            uint64_t seed, int session,
                                            int num_actions);

/// The analyst mix: core::GenerateWorkload's default mix (Zipf 0.7 focus)
/// with Poisson arrival times at `rate_per_s`.
struct TimedQuery {
  core::WorkloadQuery query;
  int64_t due_us = 0;  // offset from the start of the measured window
};
std::vector<TimedQuery> MakeAnalystStream(const core::DrugTree& dt,
                                          uint64_t seed, double rate_per_s,
                                          int num_queries);

struct ActivityWrite {
  std::string accession;
  std::string ligand_id;
  double affinity_nm = 0.0;
  bool operator==(const ActivityWrite& o) const {
    return accession == o.accession && ligand_id == o.ligand_id &&
           affinity_nm == o.affinity_nm;
  }
};

/// Write batch `batch`: `size` AddActivity writes on Zipf-chosen proteins
/// (sorted accessions, skew 0.7), uniform ligands, log-uniform affinities
/// in [1, 10000] nM.
std::vector<ActivityWrite> MakeWriteBatch(
    uint64_t seed, uint64_t batch, int size,
    const std::vector<std::string>& accessions,
    const std::vector<std::string>& ligand_ids);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
