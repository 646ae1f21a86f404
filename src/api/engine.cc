#include "api/engine.h"

#include <utility>

#include "common/parallel.h"
#include "core/topk.h"
#include "data/io.h"
#include "obs/trace.h"

namespace utk {

Engine::Engine(Dataset data)
    : data_(std::move(data)),
      tree_(RTree::BulkLoad(data_)),
      cols_(data_),
      model_(DefaultCostModel()) {}

std::optional<Engine> Engine::FromCsvFile(const std::string& path) {
  std::optional<Dataset> data = LoadCsvFile(path);
  if (!data.has_value() || data->empty()) return std::nullopt;
  return Engine(std::move(*data));
}

Snapshot Engine::snapshot() const {
  Snapshot snap{.cols = cols_};
  snap.data = &data_;
  snap.tree = &tree_;
  snap.live = size();
  snap.dim = dim();
  snap.model = model_.get();
  return snap;
}

Algorithm Engine::Plan(const QuerySpec& spec) const {
  return Decide(spec).algorithm;
}

PlanDecision Engine::Decide(const QuerySpec& spec) const {
  return utk::Decide(snapshot(), spec);
}

PlanNode Engine::Explain(const QuerySpec& spec) const {
  return utk::Explain(snapshot(), spec);
}

std::optional<std::string> Engine::Validate(const QuerySpec& spec,
                                            Algorithm* planned) const {
  return utk::Validate(snapshot(), spec, planned);
}

QueryResult Engine::Run(const QuerySpec& spec) const {
  return Execute(snapshot(), spec);
}

BatchQueryResult Engine::RunBatch(std::span<const QuerySpec> specs,
                                  int threads) const {
  UTK_SPAN_VAL("engine.batch", static_cast<int64_t>(specs.size()));
  BatchQueryResult batch;
  batch.results.resize(specs.size());
  ParallelFor(static_cast<int>(specs.size()),
              threads <= 0 ? DefaultThreads() : threads,
              [&](int i) { batch.results[i] = Run(specs[i]); });
  std::vector<QueryStats> stats;
  stats.reserve(batch.results.size());
  for (const QueryResult& r : batch.results) {
    stats.push_back(r.stats);
    if (!r.ok) ++batch.failed;
  }
  batch.total = QueryStats::Merge(stats);
  return batch;
}

std::vector<int32_t> Engine::TopK(const Vec& w, int k) const {
  return TopKRTree(cols_, tree_, w, k);
}

}  // namespace utk
