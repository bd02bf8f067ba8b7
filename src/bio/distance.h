// Sequence distances and distance matrices — the input to tree construction.
//
// Two estimators are provided:
//  * alignment identity distance with a Poisson (Kimura-style) correction,
//    accurate but O(len^2) per pair;
//  * k-mer profile distance, a cheap alignment-free approximation used for
//    large protein sets: 1 - cosine of the two k-mer count vectors.
//
// The k-mer distance never builds a dense 20^k profile. Each sequence becomes
// a list of (k-mer code, count) entries sorted by code, with its squared
// norm computed once; a sequence of length L has at most L - k + 1 entries.
// KmerDistance merges two lists. KmerDistanceMatrix scatters row i's counts
// into one dense accumulator of 20^k doubles, scores every j > i by walking
// j's list against it, then clears i's entries, so a pair costs O(L), not
// O(20^k). The results are exact: counts are integers, so every product and
// partial sum of the dot product and the norms is an integer far below 2^53,
// and doubles hold them exactly whatever the summation order. The distance
// is then dot / (sqrt(na) * sqrt(nb)) as before, bit for bit.

#ifndef DRUGTREE_BIO_DISTANCE_H_
#define DRUGTREE_BIO_DISTANCE_H_

#include <string>
#include <vector>

#include "bio/align.h"
#include "bio/sequence.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace drugtree {
namespace bio {

/// A symmetric matrix of pairwise distances with a zero diagonal, plus the
/// taxon names the rows/columns refer to.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;

  /// Creates an n x n zero matrix labelled by `names` (must be unique).
  static util::Result<DistanceMatrix> Create(std::vector<std::string> names);

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  double at(size_t i, size_t j) const { return data_[i * size() + j]; }

  /// Sets d(i,j) = d(j,i) = v. v must be >= 0 and i != j.
  void Set(size_t i, size_t j, double v);

  /// True iff the matrix is symmetric with a zero diagonal and no negative
  /// entries (validated by tests and asserted by builders).
  bool IsValid() const;

  /// Index of a taxon name, or -1.
  int IndexOf(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> data_;
};

/// Distance between two aligned sequences: 1 - identity, optionally with the
/// Poisson correction -ln(identity) clamped at `max_distance`.
struct DistanceParams {
  AlignParams align;
  bool poisson_correct = true;
  double max_distance = 5.0;
};

/// Pairwise alignment-based distance for one pair.
util::Result<double> AlignmentDistance(const Sequence& a, const Sequence& b,
                                       const DistanceParams& params = {});

/// Full alignment-based distance matrix; O(n^2) alignments, parallelized
/// across `pool` if provided.
util::Result<DistanceMatrix> AlignmentDistanceMatrix(
    const std::vector<Sequence>& seqs, const DistanceParams& params = {},
    util::ThreadPool* pool = nullptr);

/// k-mer profile (cosine) distance for one pair; k in [1, 4]. A sequence
/// shorter than k has no k-mers and is at distance 1.0 from everything.
/// InvalidArgument for a bad k or a non-canonical residue.
util::Result<double> KmerDistance(const Sequence& a, const Sequence& b, int k = 3);

/// Full k-mer distance matrix; O(n^2) list walks of O(L) each. With `pool`,
/// rows are spread over its threads; the result is bitwise the serial one.
util::Result<DistanceMatrix> KmerDistanceMatrix(
    const std::vector<Sequence>& seqs, int k = 3,
    util::ThreadPool* pool = nullptr);

}  // namespace bio
}  // namespace drugtree

#endif  // DRUGTREE_BIO_DISTANCE_H_
