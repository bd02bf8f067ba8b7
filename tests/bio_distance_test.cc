#include "bio/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "bio/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace drugtree {
namespace bio {
namespace {

// The dense k-mer distance KmerDistance and KmerDistanceMatrix used before
// they switched to sorted k-mer lists: a 20^k-float count profile per
// sequence and a cosine walk over every dimension. It is the oracle the
// sparse form must match bit for bit.
std::vector<float> DenseKmerProfile(const Sequence& s, int k) {
  size_t dims = 1;
  for (int i = 0; i < k; ++i) dims *= kNumAminoAcids;
  std::vector<float> prof(dims, 0.0f);
  if (s.length() < static_cast<size_t>(k)) return prof;
  const std::string& r = s.residues();
  for (size_t i = 0; i + k <= r.size(); ++i) {
    size_t code = 0;
    for (int j = 0; j < k; ++j) {
      code = code * kNumAminoAcids + static_cast<size_t>(ResidueIndex(r[i + j]));
    }
    prof[code] += 1.0f;
  }
  return prof;
}

double DenseCosineDistance(const std::vector<float>& a,
                           const std::vector<float>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += double(a[i]) * b[i];
    na += double(a[i]) * a[i];
    nb += double(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 1.0;
  double cos = dot / (std::sqrt(na) * std::sqrt(nb));
  return std::max(0.0, 1.0 - cos);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Asserts every entry of KmerDistanceMatrix(seqs, k) has the oracle's bits.
void ExpectMatrixMatchesOracle(const std::vector<Sequence>& seqs, int k) {
  auto m = KmerDistanceMatrix(seqs, k);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->size(), seqs.size());
  std::vector<std::vector<float>> profiles;
  for (const auto& s : seqs) profiles.push_back(DenseKmerProfile(s, k));
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_TRUE(SameBits(m->at(i, i), 0.0));
    for (size_t j = i + 1; j < seqs.size(); ++j) {
      double want = DenseCosineDistance(profiles[i], profiles[j]);
      ASSERT_TRUE(SameBits(m->at(i, j), want) && SameBits(m->at(j, i), want))
          << "k=" << k << " (" << i << "," << j << "): " << m->at(i, j)
          << " vs oracle " << want;
    }
  }
}

void ExpectPairMatchesOracle(const Sequence& a, const Sequence& b, int k) {
  auto d = KmerDistance(a, b, k);
  ASSERT_TRUE(d.ok()) << d.status();
  double want =
      DenseCosineDistance(DenseKmerProfile(a, k), DenseKmerProfile(b, k));
  EXPECT_TRUE(SameBits(*d, want)) << "k=" << k << " " << a.id() << " vs "
                                  << b.id() << ": " << *d << " vs " << want;
}

// Eight evolved families of 64 taxa at length 120, the catalog's shape.
std::vector<std::vector<Sequence>> EvolvedFamilies() {
  util::Rng rng(16);
  std::vector<std::vector<Sequence>> families;
  for (int f = 0; f < 8; ++f) {
    EvolutionParams ep;
    ep.num_taxa = 64;
    ep.sequence_length = 120;
    ep.id_prefix = "F" + std::to_string(f) + "_";
    auto fam = EvolveFamily(ep, &rng);
    EXPECT_TRUE(fam.ok()) << fam.status();
    if (fam.ok()) families.push_back(std::move(fam->sequences));
  }
  return families;
}

TEST(KmerOracleTest, EvolvedFamilyMatricesBitwiseEqual) {
  auto families = EvolvedFamilies();
  ASSERT_EQ(families.size(), 8u);
  for (int k = 1; k <= 4; ++k) {
    for (const auto& fam : families) ExpectMatrixMatchesOracle(fam, k);
  }
}

// One matrix over all 512 taxa at the catalog's k: long accumulator rows
// and cross-family pairs with few shared k-mers.
TEST(KmerOracleTest, AllFamiliesMatrixBitwiseEqual) {
  std::vector<Sequence> all;
  for (auto& fam : EvolvedFamilies()) {
    for (auto& s : fam) all.push_back(std::move(s));
  }
  ASSERT_EQ(all.size(), 512u);
  ExpectMatrixMatchesOracle(all, 3);
}

TEST(KmerOracleTest, PairsBitwiseEqual) {
  std::vector<Sequence> all;
  for (auto& fam : EvolvedFamilies()) {
    for (auto& s : fam) all.push_back(std::move(s));
  }
  for (int k = 1; k <= 4; ++k) {
    for (size_t i = 0; i < all.size(); i += 3) {
      ExpectPairMatchesOracle(all[i], all[(i * 37 + 11) % all.size()], k);
    }
    ExpectPairMatchesOracle(all[5], all[5], k);
  }
}

TEST(KmerOracleTest, RandomSequencesBitwiseEqual) {
  util::Rng rng(17);
  std::vector<Sequence> seqs = RandomSequences(24, 120, &rng, "A");
  for (auto& s : RandomSequences(24, 37, &rng, "B")) seqs.push_back(s);
  for (auto& s : RandomSequences(8, 400, &rng, "C")) seqs.push_back(s);
  for (int k = 1; k <= 4; ++k) {
    ExpectMatrixMatchesOracle(seqs, k);
    for (size_t i = 0; i + 1 < seqs.size(); i += 5) {
      ExpectPairMatchesOracle(seqs[i], seqs[i + 1], k);
    }
  }
}

// Sequences shorter than k have no k-mers: distance 1.0 to everything,
// including each other and the empty sequence.
TEST(KmerOracleTest, ShorterThanKIsOne) {
  util::Rng rng(18);
  std::vector<Sequence> seqs = RandomSequences(6, 60, &rng);
  seqs.emplace_back("empty", "");
  seqs.emplace_back("one", "M");
  seqs.emplace_back("two", "MK");
  seqs.emplace_back("three", "MKV");
  for (int k = 1; k <= 4; ++k) {
    ExpectMatrixMatchesOracle(seqs, k);
    auto m = KmerDistanceMatrix(seqs, k);
    ASSERT_TRUE(m.ok());
    for (size_t i = 0; i < seqs.size(); ++i) {
      for (size_t j = 0; j < seqs.size(); ++j) {
        if (i == j || seqs[i].length() >= static_cast<size_t>(k)) continue;
        EXPECT_TRUE(SameBits(m->at(i, j), 1.0)) << seqs[i].id() << " k=" << k;
      }
    }
  }
}

TEST(KmerOracleTest, EmptyVersusEmptyIsOne) {
  Sequence a("a", ""), b("b", "");
  for (int k = 1; k <= 4; ++k) {
    ExpectPairMatchesOracle(a, b, k);
    auto d = KmerDistance(a, b, k);
    ASSERT_TRUE(d.ok());
    EXPECT_TRUE(SameBits(*d, 1.0));
  }
}

TEST(KmerDistanceTest, RejectsInvalidResidue) {
  Sequence bad("bad", "MKVLW#AALL");
  auto good = Sequence::Create("good", "MKVLWAALLV");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(KmerDistance(bad, *good, 3).status().IsInvalidArgument());
  EXPECT_TRUE(KmerDistance(*good, bad, 3).status().IsInvalidArgument());
  EXPECT_TRUE(
      KmerDistanceMatrix({*good, bad}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(
      KmerDistanceMatrix({*good}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      KmerDistanceMatrix({*good}, 5).status().IsInvalidArgument());
}

TEST(DistanceMatrixTest, CreateRejectsDuplicateNames) {
  EXPECT_TRUE(
      DistanceMatrix::Create({"a", "b", "a"}).status().IsInvalidArgument());
}

TEST(DistanceMatrixTest, SetIsSymmetric) {
  auto m = DistanceMatrix::Create({"a", "b", "c"});
  ASSERT_TRUE(m.ok());
  m->Set(0, 2, 1.5);
  EXPECT_DOUBLE_EQ(m->at(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(m->at(2, 0), 1.5);
  EXPECT_DOUBLE_EQ(m->at(0, 0), 0.0);
  EXPECT_TRUE(m->IsValid());
}

TEST(DistanceMatrixTest, IndexOf) {
  auto m = DistanceMatrix::Create({"x", "y"});
  EXPECT_EQ(m->IndexOf("y"), 1);
  EXPECT_EQ(m->IndexOf("z"), -1);
}

TEST(AlignmentDistanceTest, IdenticalIsZero) {
  auto a = Sequence::Create("a", "MKVLWAALLVMKVLWAALLV");
  auto d = AlignmentDistance(*a, *a);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(*d, 0.0, 1e-9);
}

TEST(AlignmentDistanceTest, UnrelatedIsLarge) {
  util::Rng rng(3);
  auto seqs = RandomSequences(2, 100, &rng);
  auto d = AlignmentDistance(seqs[0], seqs[1]);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(*d, 0.5);
}

TEST(AlignmentDistanceTest, ClampedAtMax) {
  DistanceParams p;
  p.max_distance = 2.0;
  util::Rng rng(4);
  auto seqs = RandomSequences(2, 80, &rng);
  auto d = AlignmentDistance(seqs[0], seqs[1], p);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(*d, 2.0);
}

TEST(KmerDistanceTest, IdenticalIsZeroUnrelatedPositive) {
  util::Rng rng(5);
  auto seqs = RandomSequences(2, 120, &rng);
  auto same = KmerDistance(seqs[0], seqs[0], 3);
  ASSERT_TRUE(same.ok());
  EXPECT_NEAR(*same, 0.0, 1e-9);
  auto diff = KmerDistance(seqs[0], seqs[1], 3);
  ASSERT_TRUE(diff.ok());
  EXPECT_GT(*diff, 0.1);
  EXPECT_LE(*diff, 1.0);
}

TEST(KmerDistanceTest, RejectsBadK) {
  util::Rng rng(6);
  auto seqs = RandomSequences(2, 50, &rng);
  EXPECT_TRUE(KmerDistance(seqs[0], seqs[1], 0).status().IsInvalidArgument());
  EXPECT_TRUE(KmerDistance(seqs[0], seqs[1], 5).status().IsInvalidArgument());
}

TEST(KmerDistanceTest, ShortSequenceNoKmersMaxDistance) {
  auto a = Sequence::Create("a", "MK");
  auto b = Sequence::Create("b", "MKVLWMKVLW");
  auto d = KmerDistance(*a, *b, 3);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 1.0);  // empty profile vs non-empty
}

// The central signal property: within-clade distances are smaller than
// cross-family distances for evolved sequences.
TEST(DistanceSignalTest, EvolvedFamilyHasTreeSignal) {
  util::Rng rng(42);
  EvolutionParams ep;
  ep.num_taxa = 8;
  ep.sequence_length = 150;
  auto fam1 = EvolveFamily(ep, &rng);
  auto fam2 = EvolveFamily(ep, &rng);
  ASSERT_TRUE(fam1.ok());
  ASSERT_TRUE(fam2.ok());
  // Mean within-family kmer distance < mean cross-family distance.
  double within = 0, cross = 0;
  int wn = 0, cn = 0;
  for (size_t i = 0; i < fam1->sequences.size(); ++i) {
    for (size_t j = i + 1; j < fam1->sequences.size(); ++j) {
      within += *KmerDistance(fam1->sequences[i], fam1->sequences[j]);
      ++wn;
    }
    for (const auto& other : fam2->sequences) {
      cross += *KmerDistance(fam1->sequences[i], other);
      ++cn;
    }
  }
  EXPECT_LT(within / wn, cross / cn);
}

TEST(DistanceMatrixBuildTest, KmerMatrixValid) {
  util::Rng rng(7);
  EvolutionParams ep;
  ep.num_taxa = 10;
  ep.sequence_length = 100;
  auto fam = EvolveFamily(ep, &rng);
  ASSERT_TRUE(fam.ok());
  auto m = KmerDistanceMatrix(fam->sequences, 3);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->size(), 10u);
  EXPECT_TRUE(m->IsValid());
}

TEST(DistanceMatrixBuildTest, AlignmentMatrixValid) {
  util::Rng rng(8);
  EvolutionParams ep;
  ep.num_taxa = 6;
  ep.sequence_length = 60;
  auto fam = EvolveFamily(ep, &rng);
  ASSERT_TRUE(fam.ok());
  auto m = AlignmentDistanceMatrix(fam->sequences);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->IsValid());
}

TEST(DistanceMatrixBuildTest, ParallelMatchesSerial) {
  util::Rng rng(9);
  EvolutionParams ep;
  ep.num_taxa = 64;
  ep.sequence_length = 80;
  auto fam = EvolveFamily(ep, &rng);
  ASSERT_TRUE(fam.ok());
  util::ThreadPool pool(4);
  for (int k = 1; k <= 4; ++k) {
    auto serial = KmerDistanceMatrix(fam->sequences, k, nullptr);
    auto parallel = KmerDistanceMatrix(fam->sequences, k, &pool);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    for (size_t i = 0; i < serial->size(); ++i) {
      for (size_t j = 0; j < serial->size(); ++j) {
        ASSERT_TRUE(SameBits(serial->at(i, j), parallel->at(i, j)))
            << "k=" << k << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(SyntheticTest, EvolveFamilyDeterministic) {
  EvolutionParams ep;
  ep.num_taxa = 6;
  util::Rng r1(11), r2(11);
  auto f1 = EvolveFamily(ep, &r1);
  auto f2 = EvolveFamily(ep, &r2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1->true_tree_newick, f2->true_tree_newick);
  ASSERT_EQ(f1->sequences.size(), f2->sequences.size());
  for (size_t i = 0; i < f1->sequences.size(); ++i) {
    EXPECT_EQ(f1->sequences[i], f2->sequences[i]);
  }
}

TEST(SyntheticTest, EvolveFamilyValidatesParams) {
  util::Rng rng(12);
  EvolutionParams ep;
  ep.num_taxa = 1;
  EXPECT_TRUE(EvolveFamily(ep, &rng).status().IsInvalidArgument());
  ep = EvolutionParams();
  ep.sequence_length = 5;
  EXPECT_TRUE(EvolveFamily(ep, &rng).status().IsInvalidArgument());
  ep = EvolutionParams();
  EXPECT_TRUE(EvolveFamily(ep, nullptr).status().IsInvalidArgument());
}

TEST(SyntheticTest, TaxonCountAndUniqueIds) {
  util::Rng rng(13);
  EvolutionParams ep;
  ep.num_taxa = 17;
  auto fam = EvolveFamily(ep, &rng);
  ASSERT_TRUE(fam.ok());
  EXPECT_EQ(fam->sequences.size(), 17u);
  std::set<std::string> ids;
  for (const auto& s : fam->sequences) ids.insert(s.id());
  EXPECT_EQ(ids.size(), 17u);
}

}  // namespace
}  // namespace bio
}  // namespace drugtree
