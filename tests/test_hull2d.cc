#include "geometry/hull2d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "data/generator.h"
#include "geometry/linear.h"
#include "index/rtree.h"
#include "skyline/onion.h"

namespace utk {
namespace {

Dataset Pts(std::vector<std::pair<Scalar, Scalar>> pts) {
  Dataset data;
  for (auto [x, y] : pts) {
    Record r;
    r.id = static_cast<int32_t>(data.size());
    r.attrs = {x, y};
    data.push_back(r);
  }
  return data;
}

TEST(Hull2d, Square) {
  Dataset data = Pts({{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}});
  std::vector<int32_t> hull = ConvexHull2D(data);
  std::set<int32_t> got(hull.begin(), hull.end());
  EXPECT_EQ(got, (std::set<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(hull.size(), 4u);  // interior point excluded
}

TEST(Hull2d, CollinearPointsDropped) {
  Dataset data = Pts({{0, 0}, {0.5, 0.5}, {1, 1}, {1, 0}});
  std::vector<int32_t> hull = ConvexHull2D(data);
  std::set<int32_t> got(hull.begin(), hull.end());
  EXPECT_EQ(got, (std::set<int32_t>{0, 2, 3}));
}

TEST(Hull2d, DuplicatesAndTiny) {
  Dataset two = Pts({{0.3, 0.4}, {0.3, 0.4}});
  EXPECT_EQ(ConvexHull2D(two).size(), 1u);
  Dataset one = Pts({{0.5, 0.5}});
  EXPECT_EQ(ConvexHull2D(one).size(), 1u);
}

TEST(Hull2d, AllPointsInsideHullPolygon) {
  Rng rng(17);
  Dataset data = Generate(Distribution::kIndependent, 500, 2, 17);
  std::vector<int32_t> hull = ConvexHull2D(data);
  ASSERT_GE(hull.size(), 3u);
  // Every record lies inside or on the hull polygon (CCW: all cross
  // products non-negative up to eps).
  for (const Record& p : data) {
    for (size_t i = 0; i < hull.size(); ++i) {
      const Vec& a = data[hull[i]].attrs;
      const Vec& b = data[hull[(i + 1) % hull.size()]].attrs;
      const Scalar cross =
          (b[0] - a[0]) * (p.attrs[1] - a[1]) -
          (b[1] - a[1]) * (p.attrs[0] - a[0]);
      EXPECT_GE(cross, -1e-9) << "record " << p.id << " outside edge " << i;
    }
  }
}

TEST(Hull2d, FirstQuadrantChainStaircase) {
  Dataset data = Pts({{1.0, 0.1},    // max x
                      {0.8, 0.8},    // middle of the staircase
                      {0.1, 1.0},    // max y
                      {0.0, 0.0},    // dominated corner
                      {0.4, 0.4}});  // interior
  std::vector<int32_t> chain = FirstQuadrantHull2D(data);
  EXPECT_EQ(chain, (std::vector<int32_t>{0, 1, 2}));
}

TEST(Hull2d, FirstQuadrantContainsEveryLinearWinner) {
  // Every top-1 under non-negative weights is on the first-quadrant chain.
  Dataset data = Generate(Distribution::kAnticorrelated, 300, 2, 18);
  std::vector<int32_t> chain = FirstQuadrantHull2D(data);
  std::set<int32_t> chain_set(chain.begin(), chain.end());
  Rng rng(19);
  for (int t = 0; t < 200; ++t) {
    const Vec w = {rng.Uniform(0.0, 1.0)};
    int32_t best = 0;
    for (const Record& p : data)
      if (Score(p, w) > Score(data[best], w) + kEps) best = p.id;
    EXPECT_TRUE(chain_set.count(best)) << "winner " << best << " at w " << w[0];
  }
}

TEST(Hull2d, AgreesWithLpOnionFirstLayer2d) {
  // Independent cross-check of the LP-based onion membership (DESIGN.md §5):
  // in 2D the first onion layer == the first-quadrant hull chain.
  for (uint64_t seed : {21u, 22u, 23u}) {
    Dataset data = Generate(Distribution::kIndependent, 200, 2, seed);
    RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    auto layers = OnionLayers(data, cols, tree, 1);
    ASSERT_EQ(layers.size(), 1u);
    std::vector<int32_t> lp_layer = layers[0];
    std::vector<int32_t> hull_chain = FirstQuadrantHull2D(data);
    std::sort(lp_layer.begin(), lp_layer.end());
    std::sort(hull_chain.begin(), hull_chain.end());
    EXPECT_EQ(lp_layer, hull_chain) << "seed " << seed;
  }
}

}  // namespace
}  // namespace utk
