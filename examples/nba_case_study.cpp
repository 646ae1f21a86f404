// Reproduction of the paper's Figure 9 case studies on NBA-like data.
//
// Figure 9(a): d=2 (rebounds, points), k=3, R = [0.64, 0.74] on the rebound
// weight. The paper finds 4 UTK players, 11 in the 3 onion layers, and 13 in
// the 3-skyband.
// Figure 9(b): d=3 (+assists), k=3, R = [0.2, 0.3] x [0.5, 0.6]; UTK2 shows
// which preference pockets favour which trio of players.
//
// Run:  ./example_nba_case_study [num_players] [seed]
#include <cstdio>
#include <cstdlib>

#include "api/engine.h"
#include "data/realistic.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

namespace {

// Projects the 8D NBA-like data onto the requested stat columns.
utk::Dataset Project(const utk::Dataset& full, std::vector<int> cols) {
  utk::Dataset out;
  out.reserve(full.size());
  for (const utk::Record& r : full) {
    utk::Record p;
    p.id = r.id;
    for (int c : cols) p.attrs.push_back(r.attrs[c]);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace utk;
  const int n = argc > 1 ? std::atoi(argv[1]) : 500;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2017;

  Dataset league = GenerateNbaLike(n, seed);

  // ---- Figure 9(a): 2D (rebounds, points), k = 3, R = [0.64, 0.74]. ----
  Engine engine2(Project(league, {1, 0}));  // rebounds, points
  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.k = 3;
  spec.region = ConvexRegion::FromBox({0.64}, {0.74});

  QueryResult utk1 = engine2.Run(spec);
  QueryStats tmp;
  auto onion = OnionCandidates(engine2.data(), engine2.cols(), engine2.tree(),
                               spec.k, &tmp);
  auto skyband = KSkyband(engine2.cols(), engine2.tree(), spec.k);

  std::printf("== Figure 9(a): d=2 (rebounds, points), k=3, R=[0.64,0.74]\n");
  std::printf("   UTK1 players:     %zu (via %s)\n", utk1.ids.size(),
              AlgorithmName(utk1.algorithm));
  std::printf("   3 onion layers:   %zu\n", onion.size());
  std::printf("   3-skyband:        %zu\n", skyband.size());
  std::printf("   (paper: 4 / 11 / 13 on the real 2016-17 season)\n");
  std::printf("   UTK1 player stats (reb, pts):\n");
  for (int32_t id : utk1.ids)
    std::printf("     player#%d: (%.1f, %.1f)\n", id,
                engine2.data()[id].attrs[0], engine2.data()[id].attrs[1]);

  // ---- Figure 9(b): 3D (+assists), k = 3, R = [0.2,0.3] x [0.5,0.6]. ----
  Engine engine3(Project(league, {1, 0, 2}));  // rebounds, points, assists
  spec.mode = QueryMode::kUtk2;
  spec.region = ConvexRegion::FromBox({0.2, 0.5}, {0.3, 0.6});
  QueryResult utk2 = engine3.Run(spec);

  std::printf("\n== Figure 9(b): d=3 (+assists), k=3, R=[0.2,0.3]x[0.5,0.6]\n");
  std::printf("   UTK2 cells: %zu, distinct top-3 sets: %lld, players: %zu\n",
              utk2.utk2.cells.size(),
              static_cast<long long>(utk2.utk2.NumDistinctTopkSets()),
              utk2.ids.size());
  int shown = 0;
  for (const Utk2Cell& cell : utk2.utk2.cells) {
    if (shown++ >= 6) {
      std::printf("   ...\n");
      break;
    }
    std::printf("   at (w_reb=%.3f, w_pts=%.3f): top-3 = {", cell.witness[0],
                cell.witness[1]);
    for (int32_t id : cell.topk) std::printf(" #%d", id);
    std::printf(" }\n");
  }
  return 0;
}
