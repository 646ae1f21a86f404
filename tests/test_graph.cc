#include "skyline/graph.h"

#include <gtest/gtest.h>

#include <functional>

#include "data/generator.h"
#include "index/rtree.h"
#include "skyline/rdominance.h"

namespace utk {
namespace {

RSkybandResult MakeBand(int n, std::vector<std::vector<int>> dominators) {
  RSkybandResult band;
  for (int i = 0; i < n; ++i) band.ids.push_back(i);
  band.dominators = std::move(dominators);
  return band;
}

TEST(Graph, FigureFiveShape) {
  // Figure 5(b): p1..p4 roots; arcs as drawn (1-indexed in the paper).
  // p1->p5, p1->p10(via p5? drawn directly too), p2->p6, p2->p7, p3->p7,
  // p3->p8, p4->p8 ... we encode a representative subset:
  // direct dominator lists per node (0-indexed):
  RSkybandResult band = MakeBand(
      12, {{},       {},       {},        {},        {0},      {1},
           {1, 2},   {2, 3},   {4, 5},    {4},       {5, 6},   {6, 7}});
  RDominanceGraph g = RDominanceGraph::Build(band);
  EXPECT_EQ(g.size(), 12);
  // Ancestors of node 8 = {4,5} U anc(4) U anc(5) = {0,1,4,5}.
  EXPECT_TRUE(g.Ancestors(8).Test(0));
  EXPECT_TRUE(g.Ancestors(8).Test(1));
  EXPECT_TRUE(g.Ancestors(8).Test(4));
  EXPECT_TRUE(g.Ancestors(8).Test(5));
  EXPECT_EQ(g.Ancestors(8).Count(), 4);
  // Descendants of node 1 = {5, 6, 8, 10, 11}.
  EXPECT_EQ(g.Descendants(1).Count(), 5);
  EXPECT_TRUE(g.Descendants(1).Test(11));
  // Roots have no ancestors.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(g.Ancestors(i).Count(), 0);
}

TEST(Graph, DomCountWithIgnoreAndRemoval) {
  RSkybandResult band = MakeBand(5, {{}, {0}, {0, 1}, {1}, {2, 3}});
  RDominanceGraph g = RDominanceGraph::Build(band);
  EXPECT_EQ(g.DomCount(4), 4);  // ancestors {2,3,0,1}
  Bitset ignore(5);
  ignore.Set(0);
  EXPECT_EQ(g.DomCount(4, ignore), 3);
  g.Remove(1);
  EXPECT_EQ(g.DomCount(4), 3);
  EXPECT_EQ(g.DomCount(4, ignore), 2);
  EXPECT_FALSE(g.IsActive(1));
}

TEST(Graph, AncestorsMatchReachabilityOnRealBand) {
  Dataset data = Generate(Distribution::kAnticorrelated, 400, 3, 61);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.4, 0.4});
  RSkybandResult band = ComputeRSkyband(cols, tree, region, 4);
  RDominanceGraph g = RDominanceGraph::Build(band);

  // Reachability via parents must equal the ancestor bitsets.
  for (int i = 0; i < g.size(); ++i) {
    Bitset reach(g.size());
    std::function<void(int)> dfs = [&](int v) {
      for (int p : g.Parents(v)) {
        if (!reach.Test(p)) {
          reach.Set(p);
          dfs(p);
        }
      }
    };
    dfs(i);
    EXPECT_TRUE(reach == g.Ancestors(i)) << "node " << i;
  }
}

TEST(Graph, AncestorsAreActualRDominators) {
  Dataset data = Generate(Distribution::kIndependent, 300, 4, 62);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.12, 0.14},
                                              {0.22, 0.24, 0.26});
  RSkybandResult band = ComputeRSkyband(cols, tree, region, 3);
  RDominanceGraph g = RDominanceGraph::Build(band);
  for (int i = 0; i < g.size(); ++i) {
    g.Ancestors(i).ForEach([&](int a) {
      EXPECT_EQ(RDominance(data[band.ids[a]], data[band.ids[i]], region),
                RDom::kDominates)
          << "ancestor " << a << " of " << i;
    });
  }
}

TEST(Graph, DagNoSelfOrForwardArcs) {
  Dataset data = Generate(Distribution::kAnticorrelated, 500, 3, 63);
  RTree tree = RTree::BulkLoad(data);
  const ColumnStore cols(data);
  ConvexRegion region = ConvexRegion::FromBox({0.3, 0.3}, {0.45, 0.42});
  RSkybandResult band = ComputeRSkyband(cols, tree, region, 5);
  RDominanceGraph g = RDominanceGraph::Build(band);
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_FALSE(g.Ancestors(i).Test(i));
    for (int p : g.Parents(i)) EXPECT_LT(p, i);
    for (int c : g.Children(i)) EXPECT_GT(c, i);
  }
}

}  // namespace
}  // namespace utk
