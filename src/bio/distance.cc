#include "bio/distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "util/logging.h"
#include "util/string_util.h"

namespace drugtree {
namespace bio {

util::Result<DistanceMatrix> DistanceMatrix::Create(
    std::vector<std::string> names) {
  std::unordered_set<std::string> seen;
  for (const auto& n : names) {
    if (!seen.insert(n).second) {
      return util::Status::InvalidArgument("duplicate taxon name: " + n);
    }
  }
  DistanceMatrix m;
  m.names_ = std::move(names);
  m.data_.assign(m.names_.size() * m.names_.size(), 0.0);
  return m;
}

void DistanceMatrix::Set(size_t i, size_t j, double v) {
  DT_CHECK(i < size() && j < size()) << "index out of range";
  DT_CHECK(i != j) << "diagonal must stay zero";
  DT_CHECK(v >= 0.0) << "distances must be non-negative";
  data_[i * size() + j] = v;
  data_[j * size() + i] = v;
}

bool DistanceMatrix::IsValid() const {
  size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    if (at(i, i) != 0.0) return false;
    for (size_t j = i + 1; j < n; ++j) {
      if (at(i, j) < 0.0 || at(i, j) != at(j, i)) return false;
    }
  }
  return true;
}

int DistanceMatrix::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

util::Result<double> AlignmentDistance(const Sequence& a, const Sequence& b,
                                       const DistanceParams& params) {
  DRUGTREE_ASSIGN_OR_RETURN(Alignment aln, GlobalAlign(a, b, params.align));
  double identity = aln.Identity();
  double d;
  if (params.poisson_correct) {
    // Poisson correction: distance = -ln(identity). Clamp for identity ~ 0.
    double id = std::max(identity, std::exp(-params.max_distance));
    d = -std::log(id);
  } else {
    d = 1.0 - identity;
  }
  return std::min(d, params.max_distance);
}

namespace {

template <typename PairFn>
util::Status FillMatrix(DistanceMatrix* m, size_t n, util::ThreadPool* pool,
                        const PairFn& fn) {
  // Enumerate the upper triangle.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  if (pool == nullptr) {
    for (auto [i, j] : pairs) {
      auto d = fn(i, j);
      if (!d.ok()) return d.status();
      m->Set(i, j, *d);
    }
    return util::Status::OK();
  }
  std::vector<util::Status> errors(pairs.size());
  std::vector<double> values(pairs.size(), 0.0);
  pool->ParallelFor(pairs.size(), [&](size_t p) {
    auto d = fn(pairs[p].first, pairs[p].second);
    if (d.ok()) {
      values[p] = *d;
    } else {
      errors[p] = d.status();
    }
  });
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (!errors[p].ok()) return errors[p];
    m->Set(pairs[p].first, pairs[p].second, values[p]);
  }
  return util::Status::OK();
}

std::vector<std::string> NamesOf(const std::vector<Sequence>& seqs) {
  std::vector<std::string> names;
  names.reserve(seqs.size());
  for (const auto& s : seqs) names.push_back(s.id());
  return names;
}

}  // namespace

util::Result<DistanceMatrix> AlignmentDistanceMatrix(
    const std::vector<Sequence>& seqs, const DistanceParams& params,
    util::ThreadPool* pool) {
  DRUGTREE_ASSIGN_OR_RETURN(DistanceMatrix m,
                            DistanceMatrix::Create(NamesOf(seqs)));
  DRUGTREE_RETURN_IF_ERROR(FillMatrix(
      &m, seqs.size(), pool, [&](size_t i, size_t j) {
        return AlignmentDistance(seqs[i], seqs[j], params);
      }));
  return m;
}

namespace {

util::Status CheckK(int k) {
  if (k < 1 || k > 4) {
    return util::Status::InvalidArgument(
        util::StringPrintf("k must be in [1,4], got %d", k));
  }
  return util::Status::OK();
}

// Number of distinct k-mers over the 20-letter alphabet.
size_t KmerSpace(int k) {
  size_t space = 1;
  for (int i = 0; i < k; ++i) space *= kNumAminoAcids;
  return space;
}

// One sequence's k-mer counts as (code, count) entries sorted by code, plus
// the squared norm of the count vector.
struct KmerCounts {
  struct Entry {
    uint32_t code;
    uint32_t count;
  };
  std::vector<Entry> entries;
  double norm2 = 0.0;
};

util::Result<KmerCounts> CountKmers(const Sequence& s, int k) {
  KmerCounts out;
  if (s.length() < static_cast<size_t>(k)) return out;
  const std::string& r = s.residues();
  const uint32_t space = static_cast<uint32_t>(KmerSpace(k));
  std::vector<uint32_t> codes;
  codes.reserve(r.size() - k + 1);
  uint32_t code = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    int idx = ResidueIndex(r[i]);
    if (idx < 0) {
      return util::Status::InvalidArgument("invalid residue in " + s.id());
    }
    // Rolling code of the window ending at i: drop the oldest residue.
    code = (code * kNumAminoAcids + static_cast<uint32_t>(idx)) % space;
    if (i + 1 >= static_cast<size_t>(k)) codes.push_back(code);
  }
  std::sort(codes.begin(), codes.end());
  for (size_t i = 0; i < codes.size();) {
    size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    const uint32_t count = static_cast<uint32_t>(j - i);
    out.entries.push_back({codes[i], count});
    out.norm2 += double(count) * count;
    i = j;
  }
  return out;
}

// Cosine distance from an exact dot product and squared norms.
double CosineFromDot(double dot, double na, double nb) {
  if (na == 0.0 || nb == 0.0) return 1.0;
  double cos = dot / (std::sqrt(na) * std::sqrt(nb));
  return std::max(0.0, 1.0 - cos);
}

// Scores row i against every j > i: i's counts are scattered into `acc`
// (20^k entries, all zero on entry and on return), and each j's short list
// is walked against it.
void ScoreRow(const std::vector<KmerCounts>& counts, size_t i,
              std::vector<double>* acc, DistanceMatrix* m) {
  const KmerCounts& a = counts[i];
  for (const auto& e : a.entries) (*acc)[e.code] = e.count;
  for (size_t j = i + 1; j < counts.size(); ++j) {
    const KmerCounts& b = counts[j];
    double dot = 0.0;
    for (const auto& e : b.entries) dot += (*acc)[e.code] * e.count;
    m->Set(i, j, CosineFromDot(dot, a.norm2, b.norm2));
  }
  for (const auto& e : a.entries) (*acc)[e.code] = 0.0;
}

}  // namespace

util::Result<double> KmerDistance(const Sequence& a, const Sequence& b, int k) {
  DRUGTREE_RETURN_IF_ERROR(CheckK(k));
  DRUGTREE_ASSIGN_OR_RETURN(KmerCounts ca, CountKmers(a, k));
  DRUGTREE_ASSIGN_OR_RETURN(KmerCounts cb, CountKmers(b, k));
  double dot = 0.0;
  auto ia = ca.entries.begin(), ib = cb.entries.begin();
  while (ia != ca.entries.end() && ib != cb.entries.end()) {
    if (ia->code < ib->code) {
      ++ia;
    } else if (ib->code < ia->code) {
      ++ib;
    } else {
      dot += double(ia->count) * ib->count;
      ++ia;
      ++ib;
    }
  }
  return CosineFromDot(dot, ca.norm2, cb.norm2);
}

util::Result<DistanceMatrix> KmerDistanceMatrix(
    const std::vector<Sequence>& seqs, int k, util::ThreadPool* pool) {
  DRUGTREE_RETURN_IF_ERROR(CheckK(k));
  const size_t n = seqs.size();
  std::vector<KmerCounts> counts(n);
  for (size_t i = 0; i < n; ++i) {
    DRUGTREE_ASSIGN_OR_RETURN(counts[i], CountKmers(seqs[i], k));
  }
  DRUGTREE_ASSIGN_OR_RETURN(DistanceMatrix m,
                            DistanceMatrix::Create(NamesOf(seqs)));
  // Scores rows first, first + stride, ... with one accumulator.
  auto score_rows = [&](size_t first, size_t stride) {
    std::vector<double> acc(KmerSpace(k), 0.0);
    for (size_t i = first; i < n; i += stride) ScoreRow(counts, i, &acc, &m);
  };
  if (pool == nullptr) {
    score_rows(0, 1);
  } else {
    // Interleaved rows spread the long early rows and the short late ones
    // evenly over the tasks. Tasks write disjoint cells, each computed
    // exactly as in the serial loop.
    const size_t tasks =
        std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
    pool->ParallelFor(tasks, [&](size_t t) { score_rows(t, tasks); });
  }
  return m;
}

}  // namespace bio
}  // namespace drugtree
