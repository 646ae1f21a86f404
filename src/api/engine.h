// utk::Engine — the single entry point for answering UTK queries.
//
// An Engine owns a Dataset and its R-tree (built once, Section 3.1), accepts
// declarative QuerySpecs, and answers them through the shared execution
// core (api/execute.h) — RSA, JAA, the SK/ON baselines, or the naive oracle,
// picked by the planner under Algorithm::kAuto. Independent queries run
// concurrently via RunBatch with
// deterministic, input-ordered results. All examples, benchmarks, and
// integration tests go through this facade; only unit tests construct the
// algorithm classes directly.
#ifndef UTK_API_ENGINE_H_
#define UTK_API_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/execute.h"
#include "api/planner.h"
#include "api/query.h"
#include "api/query_engine.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

/// Results of a RunBatch call, input-ordered.
struct BatchQueryResult {
  std::vector<QueryResult> results;  ///< results[i] answers specs[i]
  QueryStats total;                  ///< stats merged over all results
  int failed = 0;                    ///< number of results with !ok
};

// Thread-safety: an Engine is immutable after construction. `Plan`, `Run`,
// `RunBatch`, and `TopK` are const and touch only the dataset and R-tree
// read-only, so any number of threads (and serving sessions — see
// serve/server.h) may call them concurrently on one shared engine without
// synchronization. The engine is move-only: datasets and their R-trees are
// heavy, so share a single instance (e.g. via std::shared_ptr<const Engine>)
// instead of copying. Moving is cheap and safe — the R-tree stores record
// ids, never pointers into the dataset vector.
//
// Engine implements the QueryEngine contract (api/query_engine.h); the
// serving layer accepts either this engine or the partitioned one
// (dist/partitioned_engine.h) through that interface.
class Engine final : public QueryEngine {
 public:
  /// Takes ownership of `data` and bulk-loads the R-tree once. The dataset
  /// must satisfy the repo invariant data[i].id == i (all generators and
  /// loaders do).
  explicit Engine(Dataset data);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads a CSV dataset (see data/io.h) and builds an engine over it.
  /// Returns nullopt when the file is missing, malformed, or empty.
  static std::optional<Engine> FromCsvFile(const std::string& path);

  using QueryEngine::Run;  // the sink overload forwards to Run(spec)

  const Dataset& data() const override { return data_; }
  const RTree& tree() const { return tree_; }
  /// The SoA mirror of data() (exec/column_store.h), built once with the
  /// R-tree. All hot query paths consume it; it is exposed so co-located
  /// components (the partitioned engine's single-shard alias, benchmarks,
  /// differential tests) can share rather than rebuild it.
  const ColumnStore& cols() const { return cols_; }

  /// The read-only view every query entry point executes over
  /// (api/execute.h): the whole dataset live, epoch 0.
  Snapshot snapshot() const;

  /// The algorithm `spec` will execute with: resolves kAuto against this
  /// engine's dataset, leaves explicit choices untouched.
  Algorithm Plan(const QuerySpec& spec) const override;

  /// The full planning verdict behind Plan: algorithm, reason, the cost
  /// model's estimate and runner-up when one is installed.
  PlanDecision Decide(const QuerySpec& spec) const;

  /// EXPLAIN: engine.run over the planned algorithm's filter/refine
  /// subtree, with the decision (and its cost estimate) on the root.
  PlanNode Explain(const QuerySpec& spec) const override;

  /// Replaces the cost model captured at construction (from
  /// DefaultCostModel()). Call before sharing the engine across threads —
  /// the engine is immutable-after-setup, not synchronized.
  void set_cost_model(std::shared_ptr<const CostModel> model) {
    model_ = std::move(model);
  }
  const CostModel* cost_model() const { return model_.get(); }

  /// The rejection rules Run applies before executing, without running:
  /// nullopt when `spec` would execute, otherwise the exact diagnostic Run
  /// would return. The serving layer uses this to bypass its cache for
  /// specs the engine will reject.
  std::optional<std::string> Validate(
      const QuerySpec& spec, Algorithm* planned = nullptr) const override;

  /// Answers one query. Invalid specs (k < 1, region dimensionality
  /// mismatch, algorithm/mode combinations that cannot answer — e.g. RSA
  /// for UTK2) come back with ok == false and a diagnostic, never a crash.
  QueryResult Run(const QuerySpec& spec) const override;

  /// Answers independent queries concurrently (threads <= 0 means
  /// DefaultThreads()). results[i] always answers specs[i] and equals what
  /// Run(specs[i]) returns — thread count never changes the output.
  BatchQueryResult RunBatch(std::span<const QuerySpec> specs,
                            int threads = 0) const;

  /// Convenience: the plain top-k for reduced weight vector `w`, answered
  /// over the engine's R-tree (branch-and-bound, no dataset scan).
  std::vector<int32_t> TopK(const Vec& w, int k) const override;

 private:
  Dataset data_;
  RTree tree_;
  ColumnStore cols_;
  std::shared_ptr<const CostModel> model_;
};

}  // namespace utk

#endif  // UTK_API_ENGINE_H_
