#include "skyline/onion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/topk.h"
#include "common/rng.h"
#include "data/generator.h"
#include "index/rtree.h"
#include "skyline/skyband.h"

namespace utk {
namespace {

TEST(Onion, FirstLayerContainsEveryTop1) {
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 71);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  auto layers = OnionLayers(data, cols, tree, 1);
  ASSERT_EQ(layers.size(), 1u);
  std::set<int32_t> layer1(layers[0].begin(), layers[0].end());
  Rng rng(7);
  for (int t = 0; t < 100; ++t) {
    Scalar w1 = rng.Uniform(0.0, 1.0), w2 = rng.Uniform(0.0, 1.0 - w1);
    auto top1 = TopK(data, {w1, w2}, 1);
    EXPECT_TRUE(layer1.count(top1[0]))
        << "top-1 record " << top1[0] << " missing from first onion layer";
  }
}

TEST(Onion, LayersContainEveryTopK) {
  // The first k layers are a superset of every possible top-k set.
  Dataset data = Generate(Distribution::kAnticorrelated, 200, 3, 72);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  const int k = 3;
  std::vector<int32_t> cands = OnionCandidates(data, cols, tree, k);
  std::set<int32_t> cand_set(cands.begin(), cands.end());
  Rng rng(8);
  for (int t = 0; t < 50; ++t) {
    Scalar w1 = rng.Uniform(0.0, 1.0), w2 = rng.Uniform(0.0, 1.0 - w1);
    for (int32_t id : TopK(data, {w1, w2}, k)) {
      EXPECT_TRUE(cand_set.count(id));
    }
  }
}

TEST(Onion, LayersAreDisjointAndSubsetOfSkyband) {
  Dataset data = Generate(Distribution::kIndependent, 400, 4, 73);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  const int k = 4;
  auto layers = OnionLayers(data, cols, tree, k);
  std::vector<int32_t> sky = KSkyband(cols, tree, k);
  std::set<int32_t> sky_set(sky.begin(), sky.end());
  std::set<int32_t> seen;
  for (const auto& layer : layers) {
    for (int32_t id : layer) {
      EXPECT_TRUE(sky_set.count(id));
      EXPECT_FALSE(seen.count(id)) << "record in two layers";
      seen.insert(id);
    }
  }
}

TEST(Onion, HullMemberTestSimpleTriangle) {
  // Three extreme records and one inner record in 2D.
  Dataset data;
  auto add = [&](Scalar x, Scalar y) {
    Record r;
    r.id = static_cast<int32_t>(data.size());
    r.attrs = {x, y};
    data.push_back(r);
  };
  add(1.0, 0.0);   // extreme toward x
  add(0.0, 1.0);   // extreme toward y
  add(0.7, 0.7);   // extreme in between
  add(0.4, 0.4);   // strictly inside
  std::vector<const Record*> others;
  for (int i = 0; i < 3; ++i) others.push_back(&data[i]);
  EXPECT_FALSE(IsFirstQuadrantHullMember(data[3], others));
  std::vector<const Record*> rest = {&data[1], &data[2], &data[3]};
  EXPECT_TRUE(IsFirstQuadrantHullMember(data[0], rest));
}

TEST(Onion, DominatedRecordNeverInFirstLayer) {
  Dataset data = Generate(Distribution::kCorrelated, 150, 3, 74);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  auto layers = OnionLayers(data, cols, tree, 2);
  ASSERT_GE(layers.size(), 1u);
  std::set<int32_t> layer1(layers[0].begin(), layers[0].end());
  for (const Record& p : data) {
    for (const Record& q : data) {
      if (p.id != q.id && layer1.count(p.id)) {
        // No layer-1 member is strictly dominated in every dimension.
        bool strictly_worse = true;
        for (size_t d = 0; d < p.attrs.size(); ++d)
          strictly_worse &= p.attrs[d] < q.attrs[d] - 1e-9;
        EXPECT_FALSE(strictly_worse);
      }
    }
  }
}

class OnionIndexParamTest
    : public ::testing::TestWithParam<std::tuple<Distribution, int>> {};

TEST_P(OnionIndexParamTest, QueriesMatchFullScan) {
  const auto [dist, max_k] = GetParam();
  Dataset data = Generate(dist, 400, 3, 75);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  OnionIndex index(data, cols, tree, max_k);
  Rng rng(76);
  for (int t = 0; t < 30; ++t) {
    Scalar w1 = rng.Uniform(0.0, 1.0), w2 = rng.Uniform(0.0, 1.0 - w1);
    const Vec w = {w1, w2};
    for (int k = 1; k <= max_k; ++k) {
      EXPECT_EQ(index.Query(w, k), TopK(data, w, k))
          << "trial " << t << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OnionIndexParamTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1, 3, 5)));

TEST(OnionIndex, CandidateCountMuchSmallerThanDataset) {
  Dataset data = Generate(Distribution::kCorrelated, 3000, 3, 77);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  OnionIndex index(data, cols, tree, 3);
  EXPECT_LT(index.CandidateCount(), 300);
  EXPECT_GE(index.max_k(), 1);
}

TEST(Onion, OnionNeverLargerThanSkyband) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset data = Generate(Distribution::kAnticorrelated, 250, 3, seed);
    RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    for (int k : {1, 2, 5}) {
      EXPECT_LE(OnionCandidates(data, cols, tree, k).size(),
                KSkyband(cols, tree, k).size());
    }
  }
}

}  // namespace
}  // namespace utk
