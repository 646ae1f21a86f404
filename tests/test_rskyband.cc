#include "skyline/rskyband.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/naive.h"
#include "core/topk.h"
#include "data/generator.h"
#include "index/rtree.h"
#include "skyline/rdominance.h"
#include "skyline/skyband.h"

namespace utk {
namespace {

class RSkybandParamTest
    : public ::testing::TestWithParam<std::tuple<Distribution, int, int, int>> {
};

TEST_P(RSkybandParamTest, MatchesBruteForce) {
  const auto [dist, n, dim, k] = GetParam();
  Dataset data = Generate(dist, n, dim, 53);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  Vec lo(dim - 1, 0.12), hi(dim - 1, 0.22);
  ConvexRegion region = ConvexRegion::FromBox(lo, hi);
  RSkybandResult got = ComputeRSkyband(cols, tree, region, k);
  std::vector<int32_t> got_ids = got.ids;
  std::sort(got_ids.begin(), got_ids.end());
  std::vector<int32_t> brute = RSkybandBruteForce(data, region, k);
  EXPECT_EQ(got_ids, brute);
}

TEST_P(RSkybandParamTest, SubsetOfKSkyband) {
  const auto [dist, n, dim, k] = GetParam();
  Dataset data = Generate(dist, n, dim, 54);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  Vec lo(dim - 1, 0.1), hi(dim - 1, 0.25);
  ConvexRegion region = ConvexRegion::FromBox(lo, hi);
  RSkybandResult band = ComputeRSkyband(cols, tree, region, k);
  std::vector<int32_t> sky = KSkyband(cols, tree, k);
  std::set<int32_t> sky_set(sky.begin(), sky.end());
  for (int32_t id : band.ids)
    EXPECT_TRUE(sky_set.count(id)) << "r-skyband member outside k-skyband";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RSkybandParamTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(60, 250, 800),
                       ::testing::Values(3, 4),
                       ::testing::Values(1, 2, 5)));

TEST(RSkyband, DominatorListsAreSound) {
  Dataset data = Generate(Distribution::kAnticorrelated, 300, 3, 55);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  RSkybandResult band = ComputeRSkyband(cols, tree, region, 3);
  for (size_t i = 0; i < band.ids.size(); ++i) {
    EXPECT_LT(static_cast<int>(band.dominators[i].size()), 3);
    for (int dom : band.dominators[i]) {
      ASSERT_LT(dom, static_cast<int>(i));
      EXPECT_EQ(
          RDominance(data[band.ids[dom]], data[band.ids[i]], region),
          RDom::kDominates);
    }
  }
}

TEST(RSkyband, DominatorListsAreComplete) {
  // Every r-dominance pair among members must be recorded.
  Dataset data = Generate(Distribution::kIndependent, 150, 3, 56);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.2}, {0.3, 0.35});
  const int k = 4;
  RSkybandResult band = ComputeRSkyband(cols, tree, region, k);
  for (size_t i = 0; i < band.ids.size(); ++i) {
    std::set<int> listed(band.dominators[i].begin(), band.dominators[i].end());
    // Listed dominators are capped at k-1 (the BBS prunes at k); a member
    // has fewer than k dominators by definition, so the list is complete.
    for (size_t j = 0; j < band.ids.size(); ++j) {
      if (i == j) continue;
      if (RDominance(data[band.ids[j]], data[band.ids[i]], region) ==
          RDom::kDominates) {
        EXPECT_TRUE(listed.count(static_cast<int>(j)))
            << "missing dominator arc " << j << " -> " << i;
      }
    }
  }
}

TEST(RSkyband, PivotOrderDecreasing) {
  Dataset data = Generate(Distribution::kIndependent, 400, 4, 57);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1, 0.1},
                                              {0.25, 0.25, 0.25});
  RSkybandResult band = ComputeRSkyband(cols, tree, region, 2);
  for (size_t i = 1; i < band.ids.size(); ++i) {
    EXPECT_GE(Score(data[band.ids[i - 1]], band.pivot) + kEps,
              Score(data[band.ids[i]], band.pivot));
  }
}

TEST(RSkyband, ContainsEveryTopkInRegion) {
  // The r-skyband must contain the exact top-k set for any w in R.
  Dataset data = Generate(Distribution::kAnticorrelated, 500, 3, 58);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.25, 0.3}, {0.45, 0.4});
  const int k = 3;
  RSkybandResult band = ComputeRSkyband(cols, tree, region, k);
  std::set<int32_t> members(band.ids.begin(), band.ids.end());
  for (const auto& [w, topk] : SampleTopkSets(data, region, k, 60, 2024)) {
    for (int32_t id : topk) EXPECT_TRUE(members.count(id));
  }
}

TEST(RSkyband, SmallerRegionNoLargerBand) {
  Dataset data = Generate(Distribution::kIndependent, 400, 3, 59);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion big = ConvexRegion::FromBox({0.1, 0.1}, {0.45, 0.45});
  ConvexRegion small = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  const auto big_band = ComputeRSkyband(cols, tree, big, 3).ids.size();
  const auto small_band = ComputeRSkyband(cols, tree, small, 3).ids.size();
  EXPECT_LE(small_band, big_band);
}

}  // namespace
}  // namespace utk
