// r-skyband computation (Section 4.1): the filtering step shared by RSA and
// JAA. Adapted BBS over the R-tree with
//   * r-dominance instead of classic dominance, and
//   * a max-heap keyed by score at the pivot vector of R, which guides the
//     search to likely r-skyband members first.
//
// Correctness of the popping order: records come off the heap in decreasing
// pivot score. If q r-dominated an earlier-popped p, then S(q) >= S(p) on all
// of R with equality at the interior pivot, which forces S(q) == S(p) on all
// of R (an affine function that is non-negative on R and zero at an interior
// point is identically zero) — i.e. q does not r-dominate p. Hence all
// r-dominators of a record are already confirmed when it pops, which is also
// how the r-dominance graph is obtained for free.
#ifndef UTK_SKYLINE_RSKYBAND_H_
#define UTK_SKYLINE_RSKYBAND_H_

// Columnar execution: every entry point reads the records through a
// ColumnStore (exec/column_store.h) whose rows are the R-tree's record ids —
// the filters never touch an AoS Record of the catalog. Leaf scans score
// through the batched ScoreBatch kernel; box-region r-dominance tests run
// through the allocation-free BoxGapEvaluator, and any other convex region
// gathers the two rows it compares and runs the generic RDominance. Both
// roads are bit-for-bit equal to the scalar definitions (tests/test_exec.cc).

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "geometry/region.h"
#include "index/rtree.h"

namespace utk {

/// Output of the filtering step.
struct RSkybandResult {
  /// Record ids of r-skyband members, in decreasing pivot-score order.
  std::vector<int32_t> ids;
  /// dominators[i] = indices (into `ids`) of members that r-dominate ids[i].
  std::vector<std::vector<int>> dominators;
  /// The pivot vector of R used as the heap key.
  Vec pivot;
};

/// Computes the r-skyband of the rows `tree` indexes in `cols` w.r.t.
/// region `r` and parameter `k`.
RSkybandResult ComputeRSkyband(const ColumnStore& cols, const RTree& tree,
                               const ConvexRegion& r, int k,
                               QueryStats* stats = nullptr);

/// As above, with external `pruners`: records pre-confirmed for pruning
/// only — r-dominators found among them count toward the k threshold (for
/// both subtree and record pruning) but pruners are never emitted. The
/// output is {p in tree : #r-dominators of p within tree ∪ pruners < k}.
/// Pruners must not duplicate records of `tree` (a duplicate would count
/// itself as its own dominator and over-prune). The partitioned engine
/// (src/dist/) seeds each shard's filter with globally strong records this
/// way, restoring global-strength pruning inside every shard.
RSkybandResult ComputeRSkyband(const ColumnStore& cols, const RTree& tree,
                               const ConvexRegion& r, int k,
                               const std::vector<Record>& pruners,
                               QueryStats* stats = nullptr);

/// The filtering step over an explicit candidate pool: `pool` rows act
/// as both the candidates and the only competitors — no R-tree involved.
/// When the pool is a superset of every top-k set over `r` (e.g. the union
/// of per-shard r-skybands, see src/dist/), the output supports exactly the
/// same refinement as the global filter: members outside the global
/// r-skyband have >= k r-dominators inside the pool too and are pruned, and
/// every global r-skyband member survives. Candidates are processed in
/// decreasing pivot-score order (ties by id), which preserves the
/// dominators-confirmed-first invariant documented above, so the r-dominance
/// graph again falls out for free.
RSkybandResult ComputeRSkybandFromPool(const ColumnStore& cols,
                                       std::vector<int32_t> pool,
                                       const ConvexRegion& r, int k,
                                       QueryStats* stats = nullptr);

/// Brute-force oracle (O(n^2) scalar r-dominance tests over the AoS
/// records, no BBS), for tests.
std::vector<int32_t> RSkybandBruteForce(const Dataset& data,
                                        const ConvexRegion& r, int k);

}  // namespace utk

#endif  // UTK_SKYLINE_RSKYBAND_H_
