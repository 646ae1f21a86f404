// Onion layers (Chang et al., described in Sections 2 and 3.3).
//
// Layer i comprises the records on the convex hull once layers 1..i-1 are
// peeled; since weights are positive, only hull facets with normals in the
// first quadrant matter (Section 3.3). We therefore test layer membership
// directly: record p is in the current layer iff some non-negative weight
// vector makes p score at least as high as every remaining record — a small
// margin-maximization LP. This replaces the qhull dependency the paper used
// while producing the same layers for linear scoring (see DESIGN.md §5).
//
// Following the paper's implementation note, layers are peeled off the
// k-skyband rather than the full dataset.
#ifndef UTK_SKYLINE_ONION_H_
#define UTK_SKYLINE_ONION_H_

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

/// Computes the first `k` onion layers of `data`. layers[i] holds record ids
/// of layer i+1. Records beyond the k-skyband cannot appear in any of the
/// first k layers and are never considered; the k-skyband is read from
/// `cols` (the SoA mirror of `data`), the hull LPs from the records.
std::vector<std::vector<int32_t>> OnionLayers(const Dataset& data,
                                              const ColumnStore& cols,
                                              const RTree& tree, int k,
                                              QueryStats* stats = nullptr);

/// Convenience: flattens the k layers into one candidate list.
std::vector<int32_t> OnionCandidates(const Dataset& data,
                                     const ColumnStore& cols,
                                     const RTree& tree, int k,
                                     QueryStats* stats = nullptr);

/// True iff some w >= 0 (not all zero, normalized to the simplex) gives `p`
/// a score >= that of every record in `others`. Exposed for testing.
bool IsFirstQuadrantHullMember(const Record& p,
                               const std::vector<const Record*>& others,
                               QueryStats* stats = nullptr);

/// The onion technique as an index (Chang et al. [13], Section 2): the
/// first k layers are materialized once; any top-k' query with k' <= k is
/// then answered by scanning only the union of the first k' layers, which
/// provably contains every top-k' set.
class OnionIndex {
 public:
  /// Materializes the first `max_k` layers.
  OnionIndex(const Dataset& data, const ColumnStore& cols, const RTree& tree,
             int max_k, QueryStats* stats = nullptr);

  /// Top-k query (k <= max_k), best first, id tie-break as in TopK().
  std::vector<int32_t> Query(const Vec& w, int k) const;

  int max_k() const { return static_cast<int>(layers_.size()); }
  const std::vector<std::vector<int32_t>>& layers() const { return layers_; }
  /// Total records across the materialized layers.
  int64_t CandidateCount() const;

 private:
  const Dataset& data_;
  std::vector<std::vector<int32_t>> layers_;
};

}  // namespace utk

#endif  // UTK_SKYLINE_ONION_H_
