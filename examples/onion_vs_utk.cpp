// Traditional operators vs UTK (the paper's Figure 10 story, interactive).
//
// Shows, for growing k, how many records the k-skyband and the k onion
// layers retain versus how many UTK1 actually certifies for a concrete
// preference region — and how far an incremental top-k query must dig to
// cover the UTK1 answer (Figure 10(b)).
//
// Run:  ./example_onion_vs_utk [n] [sigma]
#include <cstdio>
#include <cstdlib>

#include "api/engine.h"
#include "core/topk.h"
#include "data/realistic.h"
#include "data/workload.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

int main(int argc, char** argv) {
  using namespace utk;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2000;
  const Scalar sigma = argc > 2 ? std::atof(argv[2]) : 0.05;

  Dataset nba = GenerateNbaLike(n, 99);
  // Use the first 4 stats to keep onion peeling fast in this demo.
  for (Record& r : nba) r.attrs.resize(4);
  Engine engine(std::move(nba));

  Rng rng(1);
  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.region = RandomQueryBox(3, sigma, rng);
  auto pivot = spec.region.Pivot();

  std::printf("NBA-like data, n=%d, d=4, sigma=%.2f\n\n", n, sigma);
  std::printf("%6s %12s %8s %8s %12s %10s\n", "k", "k-skyband", "onion",
              "UTK1", "TK needed", "TK output");
  for (int k : {1, 2, 5, 10}) {
    spec.k = k;
    auto skyband = KSkyband(engine.cols(), engine.tree(), k);
    auto onion =
        OnionCandidates(engine.data(), engine.cols(), engine.tree(), k);
    QueryResult utk1 = engine.Run(spec);
    // Figure 10(b): how large must a plain top-k' be to cover UTK1?
    IncrementalTopK inc(engine.data(), *pivot);
    const int needed = inc.PrefixCovering(utk1.ids);
    std::printf("%6d %12zu %8zu %8zu %12d %10d\n", k, skyband.size(),
                onion.size(), utk1.ids.size(), needed, needed);
  }
  std::printf(
      "\nk-skyband and onion ignore the region R entirely; UTK1 is minimal.\n"
      "'TK needed' = k' such that top-k' at R's pivot covers the UTK1 set.\n");
  return 0;
}
