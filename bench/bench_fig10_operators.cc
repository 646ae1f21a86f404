// Figure 10 — UTK vs traditional operators on NBA-like data, varying k.
//
// 10(a): number of records retained by the k-skyband, the k onion layers,
//        and reported by UTK1 (paper: UTK reports 30-100x fewer records).
// 10(b): the k' an incremental top-k query at R's pivot needs to cover the
//        UTK1 result, and how many records it outputs doing so (paper: 40x
//        to 460x the original k).
#include "bench_common.h"
#include "core/topk.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

namespace utk {
namespace bench {
namespace {

// NBA-like data projected to 4 attributes: the full 8D onion peel is
// disproportionately LP-heavy at bench scale and adds nothing to the ratio
// the figure demonstrates.
const Engine& NbaEngine() {
  static const Engine* engine = [] {
    Dataset d = Corpus::Realistic(2, ScaledN(2000)).data();
    for (Record& r : d) r.attrs.resize(4);
    return new Engine(std::move(d));
  }();
  return *engine;
}

void Fig10(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const Engine& engine = NbaEngine();
  auto queries = Queries(/*pref_dim=*/3, /*sigma=*/0.05);

  for (auto _ : state) {
    double sky_n = 0, onion_n = 0, utk_n = 0, tk_needed = 0;
    QueryStats tmp;
    auto sky = KSkyband(engine.cols(), engine.tree(), k);
    auto onion =
        OnionCandidates(engine.data(), engine.cols(), engine.tree(), k, &tmp);
    for (const ConvexRegion& region : queries) {
      QuerySpec spec = Spec(QueryMode::kUtk1, Algorithm::kAuto, k);
      spec.region = region;
      QueryResult utk1 = engine.Run(spec);
      IncrementalTopK inc(engine.data(), *region.Pivot());
      sky_n += static_cast<double>(sky.size());
      onion_n += static_cast<double>(onion.size());
      utk_n += static_cast<double>(utk1.ids.size());
      tk_needed += static_cast<double>(inc.PrefixCovering(utk1.ids));
    }
    const double q = static_cast<double>(queries.size());
    state.counters["skyband"] = sky_n / q;
    state.counters["onion"] = onion_n / q;
    state.counters["utk1"] = utk_n / q;
    state.counters["tk_needed"] = tk_needed / q;
    state.counters["k"] = k;
  }
}
BENCHMARK(Fig10)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
