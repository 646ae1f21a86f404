// RSA and JAA reached the way every engine reaches them: Engine::Run over a
// QuerySpec, so the filter (over the engine's ColumnStore), the refinement
// and the stats merge are the production ones (api/execute.cc). These
// wrappers only unpack the QueryResult into the Utk1Result / Utk2Result
// shapes the algorithm tests assert on; `knobs` supplies use_drill,
// use_lemma1, wave_cap and refine_threads.
#ifndef UTK_TESTS_RUN_UTK_H_
#define UTK_TESTS_RUN_UTK_H_

#include <gtest/gtest.h>

#include <utility>

#include "api/engine.h"

namespace utk {

inline QueryResult RunOnEngine(const Dataset& data, QueryMode mode,
                               Algorithm algo, const ConvexRegion& r, int k,
                               QuerySpec spec) {
  spec.mode = mode;
  spec.algorithm = algo;
  spec.region = r;
  spec.k = k;
  QueryResult result = Engine(Dataset(data)).Run(spec);
  EXPECT_TRUE(result.ok) << result.error;
  return result;
}

inline Utk1Result RunRsa(const Dataset& data, const ConvexRegion& r, int k,
                         const QuerySpec& knobs = {}) {
  QueryResult q =
      RunOnEngine(data, QueryMode::kUtk1, Algorithm::kRsa, r, k, knobs);
  Utk1Result out;
  out.ids = std::move(q.ids);
  out.stats = q.stats;
  return out;
}

inline Utk2Result RunJaa(const Dataset& data, const ConvexRegion& r, int k,
                         const QuerySpec& knobs = {}) {
  QueryResult q =
      RunOnEngine(data, QueryMode::kUtk2, Algorithm::kJaa, r, k, knobs);
  q.utk2.stats = q.stats;
  return std::move(q.utk2);
}

}  // namespace utk

#endif  // UTK_TESTS_RUN_UTK_H_
