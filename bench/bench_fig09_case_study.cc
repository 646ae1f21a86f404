// Figure 9 — NBA case studies.
//
// 9(a): d=2 (rebounds, points), k=3, R=[0.64,0.74]: UTK1 record count vs the
//       3 onion layers and the 3-skyband (paper: 4 vs 11 vs 13 players).
// 9(b): d=3 (+assists), k=3, R=[0.2,0.3]x[0.5,0.6]: the UTK2 partitioning.
//
// Substitution: NBA-like synthetic league (see DESIGN.md §5); the counts
// track the paper's ratios, not its exact player names.
#include "bench_common.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

namespace utk {
namespace bench {
namespace {

Dataset Project(const Dataset& full, std::vector<int> cols) {
  Dataset out;
  out.reserve(full.size());
  for (const Record& r : full) {
    Record p;
    p.id = r.id;
    for (int c : cols) p.attrs.push_back(r.attrs[c]);
    out.push_back(std::move(p));
  }
  return out;
}

void Fig09a(benchmark::State& state) {
  const Dataset& league = Corpus::Realistic(2, ScaledN(500)).data();
  Engine engine(Project(league, {1, 0}));  // rebounds, points
  QuerySpec spec = Spec(QueryMode::kUtk1, Algorithm::kAuto, /*k=*/3);
  spec.region = ConvexRegion::FromBox({0.64}, {0.74});
  for (auto _ : state) {
    QueryResult utk1 = engine.Run(spec);
    QueryStats tmp;
    auto onion = OnionCandidates(engine.data(), engine.cols(), engine.tree(),
                                 spec.k, &tmp);
    auto sky = KSkyband(engine.cols(), engine.tree(), spec.k);
    state.counters["utk1"] = static_cast<double>(utk1.ids.size());
    state.counters["onion"] = static_cast<double>(onion.size());
    state.counters["skyband"] = static_cast<double>(sky.size());
  }
}
BENCHMARK(Fig09a)->Unit(benchmark::kMillisecond)->Iterations(1);

void Fig09b(benchmark::State& state) {
  const Dataset& league = Corpus::Realistic(2, ScaledN(500)).data();
  Engine engine(Project(league, {1, 0, 2}));  // rebounds, points, assists
  QuerySpec spec = Spec(QueryMode::kUtk2, Algorithm::kAuto, /*k=*/3);
  spec.region = ConvexRegion::FromBox({0.2, 0.5}, {0.3, 0.6});
  for (auto _ : state) {
    QueryResult utk2 = engine.Run(spec);
    state.counters["cells"] = static_cast<double>(utk2.utk2.cells.size());
    state.counters["topk_sets"] =
        static_cast<double>(utk2.utk2.NumDistinctTopkSets());
    state.counters["players"] = static_cast<double>(utk2.ids.size());
  }
}
BENCHMARK(Fig09b)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
