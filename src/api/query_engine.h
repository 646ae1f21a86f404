// QueryEngine — the abstract query-answering contract behind the serving
// layer and the CLI.
//
// Two implementations exist: utk::Engine (api/engine.h), the single-machine
// engine that owns one dataset and one R-tree, and utk::PartitionedEngine
// (dist/partitioned_engine.h), which decomposes each query across data
// shards and region tiles but answers the same QuerySpec/QueryResult
// contract. Callers that only *submit* queries (serve/server.h, utk_cli)
// depend on this interface, so either engine can back them.
//
// Implementations must be const-thread-safe: Plan/Validate/Run/TopK may be
// called concurrently from any number of threads.
#ifndef UTK_API_QUERY_ENGINE_H_
#define UTK_API_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "api/query.h"
#include "common/types.h"

namespace utk {

/// Observer for the complete sub-answers a decomposing engine produces on
/// the way to the full answer — one call per region tile of a partitioned
/// run, each a full QueryResult for the sub-spec it is paired with. The
/// serving layer admits these into its result cache as containment donors,
/// so a tiled execution warms the semantic cache for free. May be invoked
/// concurrently from worker threads; engines that do not decompose never
/// invoke it.
using PartialResultSink =
    std::function<void(const QuerySpec& sub_spec, const QueryResult& result)>;

class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// The dataset queries are answered over (data[i].id == i invariant).
  virtual const Dataset& data() const = 0;

  /// The algorithm `spec` will execute with (kAuto resolved).
  virtual Algorithm Plan(const QuerySpec& spec) const = 0;

  /// The rejection rules Run applies, without running: nullopt when `spec`
  /// would execute, otherwise the exact diagnostic Run would return.
  /// `planned`, when non-null, receives Plan(spec) for a valid spec from the
  /// same decision, so a caller that needs both decides once. Overrides
  /// repeat the nullptr default.
  virtual std::optional<std::string> Validate(
      const QuerySpec& spec, Algorithm* planned = nullptr) const = 0;

  /// Answers one query; invalid specs come back with ok == false and a
  /// diagnostic, never a crash.
  virtual QueryResult Run(const QuerySpec& spec) const = 0;

  /// Answers one query, reporting complete sub-answers to `sink` as they
  /// finish. The default forwards to Run — only decomposing engines
  /// (src/dist/) have sub-answers to report.
  virtual QueryResult Run(const QuerySpec& spec,
                          const PartialResultSink& sink) const {
    (void)sink;
    return Run(spec);
  }

  /// EXPLAIN: the static operator tree `spec` would execute — operator
  /// names from the span vocabulary (DESIGN.md §12), the planned algorithm
  /// and the planner's reason in the root detail, cardinality/cost
  /// estimates where the engine can make them. Never runs the query; for a
  /// spec Validate rejects, the root detail is "invalid: <diagnostic>".
  virtual PlanNode Explain(const QuerySpec& spec) const = 0;

  /// EXPLAIN ANALYZE: runs the query with span tracing on, rebuilds the
  /// *executed* operator tree from the recorded spans, and grafts Explain's
  /// estimates onto it (api/plan.h). `result`, when non-null, receives the
  /// query's answer — ANALYZE pays the full execution. Not safe to run
  /// concurrently with other traced queries (their spans interleave).
  virtual PlanNode ExplainAnalyze(const QuerySpec& spec,
                                  QueryResult* result = nullptr) const {
    const PlanNode static_plan = Explain(spec);
    QueryResult local;
    PlanNode analyzed = AnalyzeWithTrace(static_plan, [&]() {
      local = Run(spec);
      return local.stats.elapsed_ms;
    });
    if (result != nullptr) *result = std::move(local);
    return analyzed;
  }

  /// The plain top-k for reduced weight vector `w`.
  virtual std::vector<int32_t> TopK(const Vec& w, int k) const = 0;

  /// Version of the dataset answers are computed against. Immutable engines
  /// are forever at epoch 0; a live engine (src/live/) advances the epoch on
  /// every committed update batch. The serving layer reads the epoch before
  /// running a query and tags the cached result with it, so results computed
  /// against a superseded dataset are never admitted as current (see
  /// serve/result_cache.h).
  virtual uint64_t epoch() const { return 0; }

  /// Catalog cardinality / dimensionality. Virtual with data()-derived
  /// defaults: the mmap-backed engine (src/storage/mapped_engine.h) answers
  /// them from segment metadata so Validate/Plan never force the lazy
  /// dataset to materialize.
  virtual int64_t size() const { return static_cast<int64_t>(data().size()); }
  virtual int dim() const { return DataDim(data()); }
  int pref_dim() const { return PrefDim(dim()); }
};

}  // namespace utk

#endif  // UTK_API_QUERY_ENGINE_H_
