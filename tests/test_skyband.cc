#include "skyline/skyband.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/topk.h"
#include "common/rng.h"
#include "data/generator.h"
#include "index/rtree.h"

namespace utk {
namespace {

class SkybandParamTest : public ::testing::TestWithParam<
                             std::tuple<Distribution, int, int, int>> {};

TEST_P(SkybandParamTest, BbsMatchesBruteForce) {
  const auto [dist, n, dim, k] = GetParam();
  Dataset data = Generate(dist, n, dim, 31);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  std::vector<int32_t> bbs = KSkyband(cols, tree, k);
  std::vector<int32_t> brute = KSkybandBruteForce(data, k);
  std::sort(bbs.begin(), bbs.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(bbs, brute);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkybandParamTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(50, 300, 1500),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(1, 3, 8)));

TEST(Skyband, MonotoneInK) {
  Dataset data = Generate(Distribution::kIndependent, 500, 3, 77);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  std::vector<int32_t> prev;
  for (int k = 1; k <= 6; ++k) {
    std::vector<int32_t> band = KSkyband(cols, tree, k);
    std::sort(band.begin(), band.end());
    // k-skyband grows with k and contains the (k-1)-skyband.
    EXPECT_TRUE(std::includes(band.begin(), band.end(), prev.begin(),
                              prev.end()));
    prev = std::move(band);
  }
}

TEST(Skyband, ContainsEveryTopkResult) {
  // Property from Section 2: the k-skyband is a superset of the top-k set
  // for any weight vector.
  Dataset data = Generate(Distribution::kAnticorrelated, 400, 3, 9);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  const int k = 4;
  std::vector<int32_t> band = KSkyband(cols, tree, k);
  std::set<int32_t> band_set(band.begin(), band.end());
  Rng rng(4);
  for (int t = 0; t < 50; ++t) {
    Scalar w1 = rng.Uniform(0.0, 1.0), w2 = rng.Uniform(0.0, 1.0 - w1);
    for (int32_t id : TopK(data, {w1, w2}, k)) {
      EXPECT_TRUE(band_set.count(id)) << "top-k record outside k-skyband";
    }
  }
}

TEST(Skyband, DuplicateRecordsBothSurvive) {
  Dataset data;
  for (int i = 0; i < 4; ++i) {
    Record r;
    r.id = i;
    r.attrs = {0.5, 0.5};
    data.push_back(r);
  }
  // Coincident records do not dominate each other: all in the 1-skyband.
  EXPECT_EQ(KSkybandBruteForce(data, 1).size(), 4u);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  EXPECT_EQ(KSkyband(cols, tree, 1).size(), 4u);
}

TEST(Skyband, StatsCountHeapPops) {
  Dataset data = Generate(Distribution::kIndependent, 200, 3, 5);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  QueryStats stats;
  KSkyband(cols, tree, 2, &stats);
  EXPECT_GT(stats.heap_pops, 0);
}

}  // namespace
}  // namespace utk
