#include "core/rsa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/naive.h"
#include "core/topk.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"
#include "skyline/rskyband.h"
#include "run_utk.h"

namespace utk {
namespace {

// Cross-validation against the independent naive oracle over a randomized
// parameter sweep: (distribution, n, d, k, sigma, seed).
class RsaOracleTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, int, int, int, double, uint64_t>> {};

TEST_P(RsaOracleTest, MatchesNaiveOracle) {
  const auto [dist, n, dim, k, sigma, seed] = GetParam();
  Dataset data = Generate(dist, n, dim, seed);
  Rng rng(seed + 1000);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);

  Utk1Result fast = RunRsa(data, region, k);
  std::vector<int32_t> oracle = NaiveUtk1(data, region, k);
  EXPECT_EQ(fast.ids, oracle)
      << DistributionName(dist) << " n=" << n << " d=" << dim << " k=" << k
      << " sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsaOracleTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kAnticorrelated,
                                         Distribution::kCorrelated),
                       ::testing::Values(40, 120),
                       ::testing::Values(3, 4),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0.08, 0.2),
                       ::testing::Values(uint64_t{1}, uint64_t{2})));

// Larger instances: check the two core guarantees without the oracle.
class RsaPropertyTest : public ::testing::TestWithParam<
                            std::tuple<Distribution, int, int, double>> {};

TEST_P(RsaPropertyTest, CompleteAgainstSampledTopk) {
  const auto [dist, k, dim, sigma] = GetParam();
  Dataset data = Generate(dist, 2000, dim, 7);
  Rng rng(77);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);
  Utk1Result r = RunRsa(data, region, k);
  std::set<int32_t> result(r.ids.begin(), r.ids.end());
  // Every record appearing in a sampled exact top-k must be reported.
  for (const auto& [w, topk] : SampleTopkSets(data, region, k, 40, 3030)) {
    for (int32_t id : topk) {
      EXPECT_TRUE(result.count(id)) << "missing record " << id;
    }
  }
}

TEST_P(RsaPropertyTest, MinimalViaPerRecordOracle) {
  const auto [dist, k, dim, sigma] = GetParam();
  Dataset data = Generate(dist, 400, dim, 8);
  Rng rng(78);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);
  Utk1Result r = RunRsa(data, region, k);
  // Every reported record must pass the independent membership oracle. The
  // oracle's half-space DFS is exponential on anticorrelated data, so check
  // an even-spaced sample of at most 12 reported records per configuration.
  const size_t stride = std::max<size_t>(1, r.ids.size() / 12);
  for (size_t i = 0; i < r.ids.size(); i += stride) {
    EXPECT_TRUE(NaiveUtk1Member(data, r.ids[i], region, k))
        << "non-minimal record " << r.ids[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsaPropertyTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1, 3, 6),
                       ::testing::Values(3, 4),
                       ::testing::Values(0.05, 0.15)));

TEST(Rsa, SubsetOfRSkyband) {
  Dataset data = Generate(Distribution::kAnticorrelated, 1000, 3, 9);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  const int k = 4;
  Utk1Result r = RunRsa(data, region, k);
  RSkybandResult band = ComputeRSkyband(cols, tree, region, k);
  std::set<int32_t> band_set(band.ids.begin(), band.ids.end());
  for (int32_t id : r.ids) EXPECT_TRUE(band_set.count(id));
  EXPECT_LE(r.ids.size(), band.ids.size());
}

TEST(Rsa, OptionsOffStillCorrect) {
  // Disabling the drill and Lemma-1 optimizations must not change results.
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 10);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.25}, {0.3, 0.4});
  Utk1Result fast = RunRsa(data, region, 3);
  QuerySpec no_drill;
  no_drill.use_drill = false;
  EXPECT_EQ(RunRsa(data, region, 3, no_drill).ids, fast.ids);
  QuerySpec no_lemma;
  no_lemma.use_lemma1 = false;
  EXPECT_EQ(RunRsa(data, region, 3, no_lemma).ids, fast.ids);
  QuerySpec neither;
  neither.use_drill = false;
  neither.use_lemma1 = false;
  EXPECT_EQ(RunRsa(data, region, 3, neither).ids, fast.ids);
}

TEST(Rsa, KOne) {
  Dataset data = Generate(Distribution::kIndependent, 500, 3, 11);
  ConvexRegion region = ConvexRegion::FromBox({0.3, 0.3}, {0.5, 0.4});
  Utk1Result r = RunRsa(data, region, 1);
  EXPECT_EQ(r.ids, NaiveUtk1(data, region, 1));
  EXPECT_GE(r.ids.size(), 1u);
}

TEST(Rsa, KLargerThanDataset) {
  Dataset data = Generate(Distribution::kIndependent, 6, 3, 12);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  Utk1Result r = RunRsa(data, region, 10);
  // Everyone is in the top-10 of a 6-record dataset.
  EXPECT_EQ(r.ids.size(), 6u);
}

TEST(Rsa, TinyRegionApproachesPointQuery) {
  // As R shrinks to a point, UTK1 converges to the plain top-k set.
  Dataset data = Generate(Distribution::kIndependent, 800, 3, 13);
  const Vec center = {0.27, 0.33};
  ConvexRegion region = ConvexRegion::FromBox(
      {center[0] - 5e-7, center[1] - 5e-7}, {center[0] + 5e-7, center[1] + 5e-7});
  const int k = 5;
  Utk1Result r = RunRsa(data, region, k);
  std::vector<int32_t> expect = TopK(data, center, k);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(r.ids, expect);
}

TEST(Rsa, DuplicateRecords) {
  Dataset data;
  auto add = [&](Vec v) {
    Record r;
    r.id = static_cast<int32_t>(data.size());
    r.attrs = std::move(v);
    data.push_back(r);
  };
  add({0.9, 0.1, 0.5});
  add({0.9, 0.1, 0.5});  // exact duplicate
  add({0.1, 0.9, 0.5});
  add({0.5, 0.5, 0.5});
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.4, 0.4});
  Utk1Result r = RunRsa(data, region, 2);
  // The duplicate pair ties everywhere; both can be in a top-2 set.
  std::set<int32_t> ids(r.ids.begin(), r.ids.end());
  EXPECT_TRUE(ids.count(0));
  EXPECT_TRUE(ids.count(1));
}

TEST(Rsa, StatsPopulated) {
  Dataset data = Generate(Distribution::kIndependent, 500, 4, 14);
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1, 0.1},
                                              {0.25, 0.2, 0.2});
  Utk1Result r = RunRsa(data, region, 3);
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_GT(r.stats.verify_calls, 0);
  EXPECT_GT(r.stats.elapsed_ms, 0.0);
}

TEST(Rsa, GeneralConvexRegionNotBox) {
  // UTK over a triangular region (the paper notes techniques apply to
  // general convex polytopes).
  Dataset data = Generate(Distribution::kIndependent, 200, 3, 15);
  std::vector<Halfspace> cons;
  Halfspace h1, h2, h3;
  h1.a = {-1.0, 0.0};
  h1.b = -0.1;  // w1 >= 0.1
  h2.a = {0.0, -1.0};
  h2.b = -0.1;  // w2 >= 0.1
  h3.a = {1.0, 1.0};
  h3.b = 0.45;  // w1 + w2 <= 0.45
  cons = {h1, h2, h3};
  ConvexRegion region(cons);
  Utk1Result r = RunRsa(data, region, 2);
  EXPECT_EQ(r.ids, NaiveUtk1(data, region, 2));
}

}  // namespace
}  // namespace utk
