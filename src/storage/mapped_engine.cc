#include "storage/mapped_engine.h"

#include <utility>

#include "core/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {

std::unique_ptr<MappedEngine> MappedEngine::Open(const std::string& path,
                                                 std::string* error) {
  std::unique_ptr<SegmentReader> seg = SegmentReader::Open(path, error);
  if (seg == nullptr) return nullptr;
  std::unique_ptr<MappedEngine> e(new MappedEngine());
  e->tree_ = seg->Tree();
  e->cols_ = seg->Columns();
  const int32_t n = seg->rows();
  e->data_.resize(n);
  for (int32_t i = 0; i < n; ++i) e->data_[i].id = i;
  {
    MutexLock lock(e->mat_mu_);
    e->row_done_.assign(n, 0);
  }
  e->seg_ = std::move(seg);
  // Row 0 anchors DataDim(data_) for the gather constructors downstream;
  // every other row stays empty until a query proves it needs it.
  if (n > 0) {
    const std::vector<int32_t> zero = {0};
    e->EnsureRows(&zero);
  }
  return e;
}

int64_t MappedEngine::EnsureRows(const std::vector<int32_t>* ids) const {
  if (all_done_.load(std::memory_order_acquire)) return 0;
  const int64_t count =
      ids != nullptr ? static_cast<int64_t>(ids->size()) : seg_->rows();
  UTK_SPAN_VAL("mapped.materialize", count);
  MutexLock lock(mat_mu_);
  int64_t gathered = 0;
  const int d = seg_->dim();
  for (int64_t i = 0; i < count; ++i) {
    const int32_t id = ids != nullptr ? (*ids)[i] : static_cast<int32_t>(i);
    if (row_done_[id]) continue;
    Vec& attrs = data_[id].attrs;
    attrs.resize(d);
    for (int c = 0; c < d; ++c) attrs[c] = seg_->col(c)[id];
    row_done_[id] = 1;
    ++gathered;
  }
  rows_materialized_.fetch_add(gathered, std::memory_order_relaxed);
  static obs::Counter& rows = obs::MetricRegistry::Global().GetCounter(
      "utk_mapped_rows_materialized_total");
  rows.Add(gathered);
  if (ids == nullptr) all_done_.store(true, std::memory_order_release);
  return gathered;
}

const Dataset& MappedEngine::data() const {
  EnsureRows(nullptr);
  return data_;
}

Snapshot MappedEngine::snapshot() const {
  Snapshot snap{.cols = cols_};
  snap.op = "mapped.run";
  snap.data = &data_;
  snap.alive = {seg_->alive_bytes(), static_cast<size_t>(seg_->rows())};
  snap.tree = &tree_;
  // Plan against the LIVE count, exactly like the engine this segment was
  // saved from would.
  snap.live = seg_->live();
  snap.dim = seg_->dim();
  snap.epoch = seg_->epoch();
  snap.model = model_.get();
  snap.materialize = [this](const std::vector<int32_t>* ids) {
    return EnsureRows(ids);
  };
  snap.mapped_bytes = static_cast<int64_t>(seg_->file_bytes());
  return snap;
}

Algorithm MappedEngine::Plan(const QuerySpec& spec) const {
  return Decide(snapshot(), spec).algorithm;
}

std::optional<std::string> MappedEngine::Validate(
    const QuerySpec& spec, Algorithm* planned) const {
  return utk::Validate(snapshot(), spec, planned);
}

QueryResult MappedEngine::Run(const QuerySpec& spec) const {
  return Execute(snapshot(), spec);
}

PlanNode MappedEngine::Explain(const QuerySpec& spec) const {
  PlanDecision d;
  PlanNode root = utk::Explain(snapshot(), spec, &d);
  if (d.reason == PlanReason::kNone) return root;
  // The materialization step ahead of the filter/refine subtree.
  PlanNode mat;
  mat.op = "mapped.materialize";
  if (UsesBand(d.algorithm)) {
    mat.detail = "band rows on demand";
    mat.est_rows = EstimateBandSize(seg_->live(), spec.k, pref_dim());
  } else {
    mat.detail = "full catalog gather";
    mat.est_rows = seg_->rows();
  }
  root.children.insert(root.children.begin(), std::move(mat));
  return root;
}

std::vector<int32_t> MappedEngine::TopK(const Vec& w, int k) const {
  // Branch-and-bound over MBBs + the borrowed columns; no AoS rows needed.
  return TopKRTree(cols_, tree_, w, k);
}

}  // namespace utk
