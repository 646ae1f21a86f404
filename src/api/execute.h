// The one query execution core. Every UTK query runs the same envelope —
// validate, plan once, filter (Section 4.1), refine with RSA/JAA (Sections
// 4-5) or run an SK/ON baseline or the naive oracle, stamp the stats, and
// report to the planner check, metrics, slow-query log and history — and
// Execute owns all of it. Engines are Snapshot providers: Engine and
// MappedEngine snapshot their catalog, LiveEngine snapshots under its reader
// lock with the maintained band as a filter pool, and PartitionedEngine
// passes its sharded-filter/tile decomposition as the band runner.
//
// Layout: the filters (r-skyband, k-skyband) read only `cols`, the SoA
// mirror of `data`, for every region shape; refinement, the onion hull LPs,
// kSPR and the naive oracle read AoS records from `data`.
//
// Tombstones: `data` may hold dead rows but `tree` indexes only live ones.
// The filters and the SK/ON baselines reach rows through the tree (or the
// band pool), so they run on the snapshot directly; the naive oracle scans
// every row, so it runs on a per-query compacted copy of the live rows.
#ifndef UTK_API_EXECUTE_H_
#define UTK_API_EXECUTE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/planner.h"
#include "api/query.h"
#include "common/types.h"
#include "exec/column_store.h"
#include "index/rtree.h"
#include "skyline/live_band.h"
#include "skyline/rskyband.h"

namespace utk {

/// A read-only view of one catalog state. The pointers and `cols` alias
/// engine internals, which the provider keeps stable until the call returns.
struct Snapshot {
  /// Root operator: the query span, the slow-log label and the EXPLAIN root.
  const char* op = "engine.run";
  const Dataset* data = nullptr;  ///< id-addressed rows, tombstones included
  std::span<const char> alive = {};  ///< per-row liveness; empty = all live
  const RTree* tree = nullptr;    ///< indexes exactly the live rows
  const ColumnStore& cols;        ///< SoA mirror of *data: what filters read
  int64_t live = 0;               ///< live rows: what the planner sees
  int dim = 0;                    ///< attribute dimensionality
  uint64_t epoch = 0;
  const CostModel* model = nullptr;
  /// Optional maintained band pool, a superset of every r-skyband for
  /// k <= band->k() (skyline/live_band.h).
  const LiveSkyband* band = nullptr;
  /// Gathers AoS rows before they are read (`ids`, or every row when
  /// nullptr) and returns how many it gathered: the band rows ahead of
  /// refinement, every row ahead of SK/ON/naive. Unset when `data` is
  /// complete; only the mmap-backed engine sets it.
  std::function<int64_t(const std::vector<int32_t>* ids)> materialize =
      nullptr;
  int64_t mapped_bytes = 0;  ///< size of the file behind `cols`, if any

  int pref_dim() const { return PrefDim(dim); }
};

/// True for the algorithms that run the r-skyband filter + refine pipeline.
inline bool UsesBand(Algorithm algo) {
  return algo == Algorithm::kRsa || algo == Algorithm::kJaa;
}

/// nullopt when `spec` would execute over `snap`, else Execute's diagnostic.
/// `planned`, when non-null, receives the algorithm of a valid spec from
/// the same single plan decision.
std::optional<std::string> Validate(const Snapshot& snap,
                                    const QuerySpec& spec,
                                    Algorithm* planned = nullptr);

PlanDecision Decide(const Snapshot& snap, const QuerySpec& spec);

/// EXPLAIN: `snap.op` over the planned filter/refine subtree, or an
/// "invalid: ..." root. `decision` receives the plan of a valid spec and is
/// left untouched otherwise, so providers can decorate their own path.
PlanNode Explain(const Snapshot& snap, const QuerySpec& spec,
                 PlanDecision* decision = nullptr);

/// Refines a filtered band over `spec.region` with the Rsa/Jaa options
/// `spec` names.
QueryResult RefineBand(const Dataset& data, const RSkybandResult& band,
                       const QuerySpec& spec, Algorithm algo);

/// A filter + refine step that replaces the snapshot's own for RSA/JAA.
using BandRunner =
    std::function<QueryResult(const QuerySpec& spec, Algorithm algo)>;

/// Answers one query over `snap`; invalid specs come back with ok == false
/// and the Validate diagnostic, never a crash.
QueryResult Execute(const Snapshot& snap, const QuerySpec& spec,
                    const BandRunner& band_runner = nullptr);

/// The live rows re-indexed 0..m-1 in ascending id order; `stable_ids`
/// receives the monotonic new-id -> stable-id map.
Dataset CompactRows(const Dataset& data, std::span<const char> alive,
                    std::vector<int32_t>* stable_ids = nullptr);

}  // namespace utk

#endif  // UTK_API_EXECUTE_H_
