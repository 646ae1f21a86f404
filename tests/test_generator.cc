#include "data/generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/realistic.h"
#include "index/rtree.h"
#include "skyline/skyband.h"

namespace utk {
namespace {

Scalar PearsonCorrelation(const Dataset& data, int d1, int d2) {
  Scalar m1 = 0, m2 = 0;
  for (const Record& r : data) {
    m1 += r.attrs[d1];
    m2 += r.attrs[d2];
  }
  m1 /= data.size();
  m2 /= data.size();
  Scalar cov = 0, v1 = 0, v2 = 0;
  for (const Record& r : data) {
    cov += (r.attrs[d1] - m1) * (r.attrs[d2] - m2);
    v1 += (r.attrs[d1] - m1) * (r.attrs[d1] - m1);
    v2 += (r.attrs[d2] - m2) * (r.attrs[d2] - m2);
  }
  return cov / std::sqrt(v1 * v2);
}

TEST(Generator, ShapesAndRanges) {
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    Dataset data = Generate(dist, 500, 4, 42);
    ASSERT_EQ(data.size(), 500u);
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(data[i].id, static_cast<int32_t>(i));
      ASSERT_EQ(data[i].attrs.size(), 4u);
      for (Scalar v : data[i].attrs) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

TEST(Generator, Deterministic) {
  Dataset a = Generate(Distribution::kIndependent, 100, 3, 7);
  Dataset b = Generate(Distribution::kIndependent, 100, 3, 7);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].attrs, b[i].attrs);
  Dataset c = Generate(Distribution::kIndependent, 100, 3, 8);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].attrs != c[i].attrs) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Generator, CorrelationSigns) {
  Dataset ind = Generate(Distribution::kIndependent, 4000, 2, 11);
  Dataset cor = Generate(Distribution::kCorrelated, 4000, 2, 11);
  Dataset anti = Generate(Distribution::kAnticorrelated, 4000, 2, 11);
  EXPECT_NEAR(PearsonCorrelation(ind, 0, 1), 0.0, 0.1);
  EXPECT_GT(PearsonCorrelation(cor, 0, 1), 0.5);
  EXPECT_LT(PearsonCorrelation(anti, 0, 1), -0.5);
}

TEST(Generator, SkybandSizeOrdering) {
  // The defining property the paper's experiments rely on:
  // |skyband(COR)| < |skyband(IND)| < |skyband(ANTI)|.
  const int n = 2000, dim = 3, k = 3;
  size_t sizes[3];
  int idx = 0;
  for (Distribution dist :
       {Distribution::kCorrelated, Distribution::kIndependent,
        Distribution::kAnticorrelated}) {
    Dataset data = Generate(dist, n, dim, 21);
    RTree tree = RTree::BulkLoad(data);
    const ColumnStore cols(data);
    sizes[idx++] = KSkyband(cols, tree, k).size();
  }
  EXPECT_LT(sizes[0], sizes[1]);
  EXPECT_LT(sizes[1], sizes[2]);
}

TEST(Generator, ParseAndName) {
  EXPECT_EQ(ParseDistribution("ind"), Distribution::kIndependent);
  EXPECT_EQ(ParseDistribution("COR"), Distribution::kCorrelated);
  EXPECT_EQ(ParseDistribution("Anti"), Distribution::kAnticorrelated);
  EXPECT_EQ(DistributionName(Distribution::kAnticorrelated), "ANTI");
}

TEST(Realistic, HotelLikeShape) {
  Dataset data = GenerateHotelLike(1000, 3);
  ASSERT_EQ(data.size(), 1000u);
  for (const Record& r : data) {
    ASSERT_EQ(r.attrs.size(), 4u);
    for (Scalar v : r.attrs) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 10.0);
    }
  }
  // Service and cleanliness share the quality factor: strongly correlated.
  EXPECT_GT(PearsonCorrelation(data, 0, 1), 0.5);
}

TEST(Realistic, HouseLikeShape) {
  Dataset data = GenerateHouseLike(1000, 4);
  ASSERT_EQ(data.size(), 1000u);
  for (const Record& r : data) ASSERT_EQ(r.attrs.size(), 6u);
  // The size/affordability trade-off is anticorrelated.
  EXPECT_LT(PearsonCorrelation(data, 3, 4), -0.5);
}

TEST(Realistic, NbaLikeShape) {
  Dataset data = GenerateNbaLike(2000, 5);
  ASSERT_EQ(data.size(), 2000u);
  for (const Record& r : data) ASSERT_EQ(r.attrs.size(), 8u);
  // Stars score more: points correlate with minutes.
  EXPECT_GT(PearsonCorrelation(data, 0, 7), 0.3);
  // Role trade-off: rebounds vs assists are negatively related given talent;
  // overall correlation should be clearly below the points-minutes one.
  EXPECT_LT(PearsonCorrelation(data, 1, 2),
            PearsonCorrelation(data, 0, 7));
}

TEST(Realistic, FigureOneDataExact) {
  Dataset data = FigureOneHotels();
  ASSERT_EQ(data.size(), 7u);
  EXPECT_EQ(data[0].attrs, (Vec{8.3, 9.1, 7.2}));
  EXPECT_EQ(data[6].attrs, (Vec{8.6, 7.1, 4.3}));
}

}  // namespace
}  // namespace utk
