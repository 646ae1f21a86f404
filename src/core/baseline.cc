#include "core/baseline.h"

#include <algorithm>

#include "obs/trace.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

namespace utk {

int64_t BaselineUtk2Result::TotalCells() const {
  int64_t n = 0;
  for (const auto& r : records) n += static_cast<int64_t>(r.cells.size());
  return n;
}

std::vector<int32_t> BaselineUtk2Result::AllRecords() const {
  std::vector<int32_t> out;
  for (const auto& r : records)
    if (!r.cells.empty()) out.push_back(r.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int32_t> Baseline::FilterCandidates(const Dataset& data,
                                                const ColumnStore& cols,
                                                const RTree& tree, int k,
                                                QueryStats* stats) const {
  std::vector<int32_t> cands =
      filter_ == BaselineFilter::kSkyband
          ? KSkyband(cols, tree, k, stats)
          : OnionCandidates(data, cols, tree, k, stats);
  std::sort(cands.begin(), cands.end());
  if (stats != nullptr) stats->candidates = static_cast<int64_t>(cands.size());
  return cands;
}

Utk1Result Baseline::RunUtk1(const Dataset& data, const ColumnStore& cols,
                             const RTree& tree, const ConvexRegion& r,
                             int k) const {
  Utk1Result result;
  Timer timer;
  std::vector<int32_t> cands =
      FilterCandidates(data, cols, tree, k, &result.stats);
  {
    UTK_SPAN_VAL("baseline.refine", static_cast<int64_t>(cands.size()));
    for (int32_t p : cands) {
      KsprResult kr = Kspr(data, p, cands, r, k, /*early_exit=*/true,
                           &result.stats);
      if (kr.qualifies) result.ids.push_back(p);
    }
  }
  std::sort(result.ids.begin(), result.ids.end());
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

BaselineUtk2Result Baseline::RunUtk2(const Dataset& data,
                                     const ColumnStore& cols,
                                     const RTree& tree, const ConvexRegion& r,
                                     int k) const {
  BaselineUtk2Result result;
  Timer timer;
  std::vector<int32_t> cands =
      FilterCandidates(data, cols, tree, k, &result.stats);
  {
    UTK_SPAN_VAL("baseline.refine", static_cast<int64_t>(cands.size()));
    for (int32_t p : cands) {
      KsprResult kr = Kspr(data, p, cands, r, k, /*early_exit=*/false,
                           &result.stats);
      if (!kr.topk_cells.empty()) {
        result.records.push_back({p, std::move(kr.topk_cells)});
      }
    }
  }
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace utk
