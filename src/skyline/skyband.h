// BBS k-skyband computation (Papadias et al., described in Section 2).
//
// Branch-and-bound over the R-tree with a max-heap keyed by a monotone
// metric (here: sum of top-corner coordinates). A record enters the skyband
// if fewer than k current members dominate it; an index node is expanded if
// its top corner is dominated by fewer than k members.
#ifndef UTK_SKYLINE_SKYBAND_H_
#define UTK_SKYLINE_SKYBAND_H_

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"

namespace utk {

/// Computes the k-skyband of the rows `tree` indexes in `cols` using BBS.
/// Returns record ids in the order BBS confirmed them. The dominated-count
/// probes run the batched CountDominatorsOfPoint kernel over the confirmed
/// members; heap keys sum a row's columns in dimension order.
std::vector<int32_t> KSkyband(const ColumnStore& cols, const RTree& tree,
                              int k, QueryStats* stats = nullptr);

/// Brute-force k-skyband (O(n^2)), used as a test oracle.
std::vector<int32_t> KSkybandBruteForce(const Dataset& data, int k);

}  // namespace utk

#endif  // UTK_SKYLINE_SKYBAND_H_
