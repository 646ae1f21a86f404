// Baseline UTK algorithms (Section 3.3): filter with the k-skyband (SK) or
// the k onion layers (ON), then decide each surviving candidate with a
// constrained monochromatic reverse top-k query (kSPR).
//
// UTK1: kSPR runs in early-exit mode (stop at the first qualifying cell).
// UTK2: kSPR runs to completion, producing all cells of R where the
// candidate is in the top-k — a per-record decomposition that is
// semantically equivalent to (but shaped differently from) JAA's common
// global arrangement, as the paper notes.
#ifndef UTK_CORE_BASELINE_H_
#define UTK_CORE_BASELINE_H_

#include "core/kspr.h"
#include "core/utk.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

enum class BaselineFilter {
  kSkyband,  ///< SK: k-skyband candidates
  kOnion,    ///< ON: first k onion layers (always a subset of the skyband)
};

/// Per-record UTK2 output of the baseline.
struct BaselineUtk2Result {
  struct PerRecord {
    int32_t id;
    std::vector<Cell> cells;  ///< sub-regions of R where `id` is in top-k
  };
  std::vector<PerRecord> records;
  QueryStats stats;

  /// Total number of cells across records (the baseline's output volume).
  int64_t TotalCells() const;
  /// Record ids with at least one cell (equals the UTK1 answer).
  std::vector<int32_t> AllRecords() const;
};

class Baseline {
 public:
  explicit Baseline(BaselineFilter filter) : filter_(filter) {}

  /// UTK1 via filter + early-exit kSPR per candidate. `cols` is the SoA
  /// mirror of `data`: both filters compute their k-skyband from it
  /// (skyline/skyband.h), while the onion hull LPs and kSPR read `data`.
  Utk1Result RunUtk1(const Dataset& data, const ColumnStore& cols,
                     const RTree& tree, const ConvexRegion& r, int k) const;

  /// UTK2 via filter + full kSPR per candidate.
  BaselineUtk2Result RunUtk2(const Dataset& data, const ColumnStore& cols,
                             const RTree& tree, const ConvexRegion& r,
                             int k) const;

  /// The filtering step alone (candidate record ids).
  std::vector<int32_t> FilterCandidates(const Dataset& data,
                                        const ColumnStore& cols,
                                        const RTree& tree, int k,
                                        QueryStats* stats = nullptr) const;

 private:
  BaselineFilter filter_;
};

}  // namespace utk

#endif  // UTK_CORE_BASELINE_H_
