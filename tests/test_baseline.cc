#include "core/baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/kspr.h"
#include "core/naive.h"
#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"
#include "skyline/skyband.h"
#include "run_utk.h"

namespace utk {
namespace {

class BaselineAgreementTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, int, int, double, BaselineFilter>> {};

TEST_P(BaselineAgreementTest, Utk1AgreesWithRsa) {
  const auto [dist, dim, k, sigma, filter] = GetParam();
  Dataset data = Generate(dist, 250, dim, 33);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  Rng rng(34);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);
  Utk1Result base = Baseline(filter).RunUtk1(data, cols, tree, region, k);
  Utk1Result fast = RunRsa(data, region, k);
  EXPECT_EQ(base.ids, fast.ids);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineAgreementTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(3, 4),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0.08, 0.15),
                       ::testing::Values(BaselineFilter::kSkyband,
                                         BaselineFilter::kOnion)));

TEST(Baseline, Utk2RecordsMatchUtk1) {
  Dataset data = Generate(Distribution::kIndependent, 150, 3, 35);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.35, 0.4});
  const int k = 3;
  Baseline sk(BaselineFilter::kSkyband);
  BaselineUtk2Result two = sk.RunUtk2(data, cols, tree, region, k);
  Utk1Result one = sk.RunUtk1(data, cols, tree, region, k);
  EXPECT_EQ(two.AllRecords(), one.ids);
  EXPECT_GE(two.TotalCells(), static_cast<int64_t>(one.ids.size()));
}

TEST(Baseline, OnionFilterNoLargerThanSkyband) {
  Dataset data = Generate(Distribution::kAnticorrelated, 400, 3, 36);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  auto on =
      Baseline(BaselineFilter::kOnion).FilterCandidates(data, cols, tree, 3);
  auto sk =
      Baseline(BaselineFilter::kSkyband).FilterCandidates(data, cols, tree, 3);
  EXPECT_LE(on.size(), sk.size());
  std::set<int32_t> sk_set(sk.begin(), sk.end());
  for (int32_t id : on) EXPECT_TRUE(sk_set.count(id));
}

TEST(Kspr, QualifyingRecordHasCells) {
  Dataset data = Generate(Distribution::kIndependent, 120, 3, 37);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  const int k = 2;
  std::vector<int32_t> cands = KSkyband(cols, tree, k);
  std::sort(cands.begin(), cands.end());
  for (int32_t p : cands) {
    KsprResult full = Kspr(data, p, cands, region, k, /*early_exit=*/false);
    KsprResult quick = Kspr(data, p, cands, region, k, /*early_exit=*/true);
    EXPECT_EQ(full.qualifies, quick.qualifies);
    EXPECT_EQ(full.qualifies, !full.topk_cells.empty());
    EXPECT_EQ(full.qualifies, NaiveUtk1Member(data, p, region, k));
  }
}

TEST(Kspr, CellWitnessesConfirmTopkMembership) {
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 38);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.2}, {0.3, 0.35});
  const int k = 3;
  std::vector<int32_t> cands = KSkyband(cols, tree, k);
  for (int32_t p : cands) {
    KsprResult res = Kspr(data, p, cands, region, k, /*early_exit=*/false);
    for (const Cell& cell : res.topk_cells) {
      // At the cell's interior point, p must truly rank within the top-k.
      int better = 0;
      const Scalar sp = Score(data[p], cell.interior);
      for (const Record& q : data) {
        if (q.id != p && Score(q, cell.interior) > sp + kEps) ++better;
      }
      EXPECT_LT(better, k) << "record " << p << " not in top-" << k
                           << " at its own kSPR cell witness";
    }
  }
}

TEST(Baseline, StatsShowMoreCandidatesThanRsa) {
  // The motivating observation: baseline filters are looser than the
  // r-skyband (Section 4.1).
  Dataset data = Generate(Distribution::kAnticorrelated, 800, 3, 39);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.25, 0.3}, {0.35, 0.38});
  const int k = 3;
  Utk1Result base = Baseline(BaselineFilter::kSkyband)
                        .RunUtk1(data, cols, tree, region, k);
  Utk1Result fast = RunRsa(data, region, k);
  EXPECT_GE(base.stats.candidates, fast.stats.candidates);
}

}  // namespace
}  // namespace utk
