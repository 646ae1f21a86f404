// bench_dist — intra-query scaling of the partitioned engine (src/dist/).
//
// Engine::RunBatch scales across queries; this bench measures scaling
// *within* one query:
//   Filter/Single     the single-engine r-skyband filter (the stage data
//                     sharding parallelizes), n = 100k IND
//   Filter/Sharded/S  the sharded filter at S shards: per-shard r-skybands
//                     in parallel + pool union. Counters report the pool
//                     size, the critical path (max per-shard time — the
//                     stage's wall time given >= S cores), and the speedup
//                     of both wall clock and critical path over
//                     Filter/Single. On a machine with fewer than S cores
//                     the wall-clock speedup degrades toward 1x while the
//                     critical path still shows the intra-query parallelism
//                     the decomposition exposes.
//   Query/Dist/S/T    end-to-end PartitionedEngine::Run at S shards and T
//                     region tiles vs the single engine (S=1, T=1 row).
//
// Scale policy: see bench_common.h (UTK_BENCH_SCALE / _QUERIES / _THREADS).
#include <map>
#include <memory>
#include <utility>

#include "bench_common.h"
#include "dist/partitioned_engine.h"
#include "skyline/rskyband.h"

namespace utk {
namespace bench {
namespace {

// The filter bench runs the scaling-acceptance workload — n = 100k IND with
// a filter-bound parameterization (k = 100 makes the r-skyband, not the
// refinement, the cost center; see EXPERIMENTS.md).
constexpr int kFilterN = 100000;
constexpr int kFilterDim = 4;
constexpr int kFilterK = 150;
constexpr int kQueryN = 20000;
constexpr int kQueryDim = 4;
constexpr int kQueryK = 10;
constexpr double kSigma = 0.1;

std::shared_ptr<const Engine> FilterBase() {
  static std::shared_ptr<const Engine> engine = std::make_shared<const Engine>(
      Generate(Distribution::kIndependent, ScaledN(kFilterN), kFilterDim,
               4242));
  return engine;
}

std::shared_ptr<const Engine> QueryBase() {
  static std::shared_ptr<const Engine> engine = std::make_shared<const Engine>(
      Generate(Distribution::kIndependent, ScaledN(kQueryN), kQueryDim,
               4242));
  return engine;
}

/// Memoized partitioned engines (shard R-trees built once per S).
const PartitionedEngine& Partitioned(std::shared_ptr<const Engine> base,
                                     int shards, int tiles) {
  static std::map<std::tuple<const Engine*, int, int>,
                  std::unique_ptr<PartitionedEngine>>
      cache;
  auto key = std::make_tuple(base.get(), shards, tiles);
  auto it = cache.find(key);
  if (it == cache.end()) {
    DistConfig config;
    config.shards = shards;
    config.tiles = tiles;
    config.threads = NumThreads() > 1 ? NumThreads() : 0;
    it = cache
             .emplace(key, std::make_unique<PartitionedEngine>(
                               std::move(base), config))
             .first;
  }
  return *it->second;
}

/// The single-engine filter baseline, measured once (ms per query, after a
/// warm-up pass so cold-cache effects don't inflate the speedup counters).
double SingleFilterMs() {
  static const double ms = [] {
    auto engine = FilterBase();
    auto queries = Queries(engine->pref_dim(), kSigma);
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps + 1; ++rep) {
      const bool timed = rep == kReps;  // earlier passes warm the caches
      Timer timer;
      for (const ConvexRegion& region : queries) {
        RSkybandResult band = ComputeRSkyband(engine->cols(), engine->tree(),
                                              region, kFilterK);
        benchmark::DoNotOptimize(band.ids.data());
      }
      if (timed) return timer.ElapsedMs() / static_cast<double>(queries.size());
    }
    return 0.0;  // unreachable
  }();
  return ms;
}

void FilterSingle(benchmark::State& state) {
  auto engine = FilterBase();
  auto queries = Queries(engine->pref_dim(), kSigma);
  double candidates = 0;
  int count = 0;
  for (auto _ : state) {
    for (const ConvexRegion& region : queries) {
      RSkybandResult band =
          ComputeRSkyband(engine->cols(), engine->tree(), region, kFilterK);
      benchmark::DoNotOptimize(band.ids.data());
      candidates += static_cast<double>(band.ids.size());
      ++count;
    }
  }
  state.counters["candidates"] = candidates / count;
  state.counters["ms_per_query"] = SingleFilterMs();
}
BENCHMARK(FilterSingle)->Unit(benchmark::kMillisecond);

void FilterSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const PartitionedEngine& dist = Partitioned(FilterBase(), shards, 1);
  auto queries = Queries(dist.pref_dim(), kSigma);
  double critical = 0, wall = 0, pool = 0;
  int count = 0;
  for (auto _ : state) {
    for (const ConvexRegion& region : queries) {
      ShardFilterReport report;
      Timer timer;
      std::vector<int32_t> ids = dist.FilterPool(region, kFilterK, &report);
      wall += timer.ElapsedMs();
      benchmark::DoNotOptimize(ids.data());
      critical += report.critical_ms;
      pool += static_cast<double>(report.pool);
      ++count;
    }
  }
  state.counters["pool"] = pool / count;
  state.counters["wall_ms"] = wall / count;
  state.counters["critical_ms"] = critical / count;
  state.counters["speedup_wall"] = SingleFilterMs() / (wall / count);
  state.counters["speedup_critical"] = SingleFilterMs() / (critical / count);
}
BENCHMARK(FilterSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void QueryDist(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int tiles = static_cast<int>(state.range(1));
  const bool utk2 = state.range(2) != 0;
  auto base = QueryBase();
  auto queries = Queries(base->pref_dim(), kSigma);
  QuerySpec spec = Spec(utk2 ? QueryMode::kUtk2 : QueryMode::kUtk1,
                        Algorithm::kAuto, utk2 ? 5 : kQueryK);
  const QueryEngine* engine = base.get();
  if (shards > 1 || tiles > 1)
    engine = &Partitioned(base, shards, tiles);
  BatchResult out;
  for (auto _ : state) {
    for (const ConvexRegion& region : queries) {
      QuerySpec q = spec;
      q.region = region;
      QueryResult r = engine->Run(q);
      if (!r.ok) {
        state.SkipWithError(r.error.c_str());
        return;
      }
      out.total_ms += r.stats.elapsed_ms;
      out.output_size += OutputSize(r);
      out.candidates += static_cast<double>(r.stats.candidates);
      ++out.queries;
    }
  }
  out.Counters(state);
}
BENCHMARK(QueryDist)
    ->Args({1, 1, 0})->Args({2, 1, 0})->Args({4, 1, 0})
    ->Args({1, 3, 0})->Args({4, 3, 0})
    ->Args({1, 1, 1})->Args({2, 1, 1})->Args({4, 1, 1})
    ->Args({1, 3, 1})->Args({4, 3, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
