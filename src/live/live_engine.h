// LiveEngine — the QueryEngine over a mutating catalog.
//
// The paper's algorithms assume a frozen dataset; this engine lets the
// catalog mutate. It owns an epoch-versioned dataset addressed by *stable*
// record ids: erased slots become tombstones (attributes kept, excluded
// from every index), inserts take the next id or revive a tombstone. Each
// committed update batch advances the epoch and incrementally maintains
//
//   * the R-tree (index/rtree.h Insert/Erase — no bulk rebuild), and
//   * the r-skyband superset band (skyline/live_band.h): an insert can only
//     add itself or demote band members it strongly dominates; a delete can
//     only promote records it shielded. Bounded dominated-by counters keep
//     both updates O(band); when the deletion budget saturates the band is
//     rebuilt from the tree (the counters' exactness bound — see
//     live_band.h — is what makes everything in between sound).
//
// Queries answer over a Snapshot of the live structures, taken under the
// reader lock and run through the shared execution core (api/execute.h).
// RSA/JAA specs with k <= band_k refine the maintained band through the
// exact machinery the partitioned engine already trusts
// (ComputeRSkybandFromPool + RunFiltered), larger k filters the live R-tree
// directly, and the SK/ON baselines walk the live R-tree, which indexes no
// tombstone. The naive oracle runs on a per-query compacted copy of the
// live rows with its ids mapped back. Every path returns exactly what a
// from-scratch Engine over the current live records would (modulo the id
// compaction, a monotonic map).
//
// Serving contract: every committed epoch emits an invalidation sweep to
// each attached serve::ResultCache (ApplyInvalidation) with a conservative
// predicate — an erase affects exactly the entries whose UTK1 answer
// contains the erased id; an insert affects the entries where the new
// record ties-or-beats some answer member somewhere in the entry's region
// (an affine range test per cached id; closed form for boxes). Entries
// proven unaffected are re-tagged to the new epoch and keep serving;
// affected ones are dropped, so a warm Server over a LiveEngine always
// equals a cold one.
//
// Thread-safety: queries (Run/TopK/Plan/Validate) take a shared lock and
// may run concurrently; updates take the exclusive lock and commit their
// cache sweeps before releasing it. data() references are only stable
// while no update runs.
#ifndef UTK_LIVE_LIVE_ENGINE_H_
#define UTK_LIVE_LIVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/execute.h"
#include "api/query_engine.h"
#include "common/annotations.h"
#include "data/workload.h"
#include "exec/column_store.h"
#include "index/rtree.h"
#include "serve/result_cache.h"
#include "skyline/live_band.h"

namespace utk {

/// Live-update knobs.
struct LiveConfig {
  /// Largest query k the maintained band can answer (larger k falls back to
  /// filtering the live R-tree directly — still exact, just not O(band)).
  int band_k = 16;
  /// Deletions absorbed between band rebuilds (live_band.h slack).
  int band_slack = 16;
};

/// Durability hook: observes every committed update batch, synchronously,
/// under the engine's exclusive lock. `ops` lists the batch's *applied*
/// mutations in application order with their assigned ids (order matters:
/// one batch may erase an id and then revive it), so replaying the stream
/// through ApplyBatch on the view's predecessor state reproduces `view` (the
/// committed state, its epoch the new one) exactly — this is the
/// write-ahead-log contract src/storage/ builds on.
/// OnCommit runs before the update call returns; it may read the view but
/// must not call back into the engine (the exclusive lock is held).
class UpdateLog {
 public:
  virtual ~UpdateLog() = default;
  virtual void OnCommit(std::span<const UpdateOp> ops,
                        const Snapshot& view) = 0;
};

/// Monotonic update-side counters (a consistent snapshot via counters()).
struct LiveCounters {
  uint64_t epoch = 0;        ///< committed update batches
  int64_t live = 0;          ///< records currently alive
  int64_t inserts = 0;       ///< records inserted (including revivals)
  int64_t erases = 0;        ///< records erased
  int64_t band = 0;          ///< current band size
  int64_t band_rebuilds = 0; ///< counter-saturation (and initial) rebuilds
  int64_t pool_queries = 0;  ///< queries answered from the maintained band
  int64_t direct_queries = 0;   ///< k > band_k: filtered the live tree
  int64_t fallback_queries = 0; ///< answered outside the band pipeline
};

class LiveEngine final : public QueryEngine {
 public:
  /// Takes ownership of `data` (ids 0..n-1, the repo invariant) as epoch 0.
  /// An empty dataset is a valid start — build the catalog with Insert.
  explicit LiveEngine(Dataset data, LiveConfig config = {});

  /// Recovery constructor (src/storage/catalog.cc): resumes a persisted
  /// catalog mid-history. `data`/`alive` are the id-addressed state
  /// including tombstones, `tree` must index exactly the alive records
  /// (deserialized from a segment, or RTree::BulkLoad(data, alive)), and
  /// `epoch` is the committed batch count the state was saved at — the
  /// engine continues from there as if it had applied those batches itself.
  LiveEngine(Dataset data, std::vector<char> alive, RTree tree,
             uint64_t epoch, LiveConfig config = {});

  ~LiveEngine() override;

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  using QueryEngine::Run;

  // ------------------------------------------------------------- queries
  /// The id-addressed dataset *including tombstones* (data()[i].id == i
  /// still holds; IsLive distinguishes). Algorithms only dereference ids
  /// the live indexes hand out, so tombstones are never touched.
  /// Unchecked by the thread-safety analysis: the reference is handed out
  /// lock-free by contract — stable only while no update runs (class
  /// comment); synchronized callers go through WithSnapshot.
  const Dataset& data() const override UTK_NO_THREAD_SAFETY_ANALYSIS {
    return data_;
  }
  /// The SoA mirror of data() — maintained incrementally in lockstep with
  /// the catalog (SetRow on every insert/revival; tombstones keep their
  /// last attributes, same as data()). Stable only while no update runs;
  /// same lock-free-by-contract escape hatch as data().
  const ColumnStore& cols() const UTK_NO_THREAD_SAFETY_ANALYSIS {
    return cols_;
  }
  Algorithm Plan(const QuerySpec& spec) const override;
  std::optional<std::string> Validate(
      const QuerySpec& spec, Algorithm* planned = nullptr) const override;
  QueryResult Run(const QuerySpec& spec) const override;
  /// EXPLAIN: live.run over the planned algorithm's filter/refine subtree;
  /// RSA/JAA plans also name the filter path (band-pool or direct).
  PlanNode Explain(const QuerySpec& spec) const override;
  std::vector<int32_t> TopK(const Vec& w, int k) const override;
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------- updates
  /// Inserts `rec` and commits an epoch. rec.id == -1 assigns the next id;
  /// a tombstoned id revives that slot (the reinsert path). Returns the
  /// record's id, or -1 when the id is already live, out of range, or the
  /// attribute dimensionality mismatches.
  int32_t Insert(Record rec);

  /// Erases a live record and commits an epoch. Returns false for unknown
  /// or already-dead ids (no epoch is committed then).
  bool Erase(int32_t id);

  /// Applies a whole trace as ONE committed epoch (one invalidation sweep
  /// covering every op). Returns the number of ops applied; invalid ops are
  /// skipped. An all-invalid batch commits no epoch.
  int ApplyBatch(std::span<const UpdateOp> ops);

  bool IsLive(int32_t id) const;
  int64_t live_size() const { return live_.load(std::memory_order_acquire); }

  /// The live records re-indexed 0..m-1 in ascending live-id order — what a
  /// from-scratch Engine would be built on. live_ids (optional) receives
  /// the monotonic new-id -> live-id mapping.
  Dataset CompactSnapshot(std::vector<int32_t>* live_ids = nullptr) const;

  // ------------------------------------------------------------- serving
  /// Registers `cache` for epoch invalidation sweeps: every committed
  /// update batch calls cache->ApplyInvalidation before the update returns.
  /// The cache must stay alive until DetachCache (see CacheAttachment).
  void AttachCache(ResultCache* cache);
  void DetachCache(ResultCache* cache);

  // --------------------------------------------------------- persistence
  /// Registers `log` to observe every committed batch (see UpdateLog). The
  /// log must stay alive until DetachLog. Updates committed before the
  /// attach are not replayed — attach before mutating (the storage catalog
  /// attaches its WAL right after recovery, while it holds the only
  /// reference to the engine).
  void AttachLog(UpdateLog* log);
  void DetachLog(UpdateLog* log);

  /// Runs `fn` over a consistent snapshot of the full catalog state, with
  /// updates blocked for the duration (shared lock — concurrent queries
  /// proceed). The storage tier's explicit compaction uses this to write a
  /// segment + rotate the WAL atomically with respect to commits. `fn` must
  /// not call the engine's update methods (self-deadlock on the lock).
  void WithSnapshot(const std::function<void(const Snapshot&)>& fn) const;

  LiveCounters counters() const;
  const LiveConfig& config() const { return config_; }

 private:
  struct UpdateEvent {
    std::vector<Record> inserted;
    std::vector<int32_t> erased;
    /// Applied mutations in application order, assigned ids filled in —
    /// exactly what UpdateLog::OnCommit receives.
    std::vector<UpdateOp> ops;
  };

  /// The query view of the current state (api/execute.h); the pointers
  /// stay valid while the caller holds mu_.
  Snapshot SnapshotLocked() const UTK_REQUIRES_SHARED(mu_);
  /// Un-synchronized cores of Insert/Erase; the caller holds the exclusive
  /// lock and owns the commit.
  int32_t InsertLocked(Record rec, UpdateEvent* event) UTK_REQUIRES(mu_);
  bool EraseLocked(int32_t id, UpdateEvent* event) UTK_REQUIRES(mu_);
  /// Advances the epoch and sweeps every attached cache with the
  /// conservative could-affect predicate for `event`. Exclusive lock held.
  void Commit(const UpdateEvent& event) UTK_REQUIRES(mu_);
  /// True iff `event` could change the cached answer `view` (see class
  /// comment for the exact tests). Runs under Commit's exclusive lock, but
  /// reaches here through the std::function invalidation predicate — a
  /// boundary the analysis cannot see capabilities across, hence the
  /// explicit opt-out.
  bool CouldAffect(const UpdateEvent& event, const CacheEntryView& view) const
      UTK_NO_THREAD_SAFETY_ANALYSIS;

  LiveConfig config_;
  /// Cost model captured at construction (DefaultCostModel()); immutable
  /// afterwards, so planning needs no extra synchronization.
  std::shared_ptr<const CostModel> model_ = DefaultCostModel();
  /// Catalog lock. Lock order: mu_ strictly before logs_mu_ and
  /// caches_mu_ (Commit) — and, through UpdateLog::OnCommit, before the
  /// storage Catalog's cat_mu_.
  mutable SharedMutex mu_ UTK_ACQUIRED_BEFORE(logs_mu_, caches_mu_);
  Dataset data_ UTK_GUARDED_BY(mu_);
  std::vector<char> alive_ UTK_GUARDED_BY(mu_);
  RTree tree_ UTK_GUARDED_BY(mu_);
  ColumnStore cols_ UTK_GUARDED_BY(mu_);
  LiveSkyband band_ UTK_GUARDED_BY(mu_);
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> erases_{0};
  mutable std::atomic<int64_t> pool_queries_{0};
  mutable std::atomic<int64_t> direct_queries_{0};
  mutable std::atomic<int64_t> fallback_queries_{0};

  Mutex caches_mu_;
  std::vector<ResultCache*> caches_ UTK_GUARDED_BY(caches_mu_);

  Mutex logs_mu_;
  std::vector<UpdateLog*> logs_ UTK_GUARDED_BY(logs_mu_);
};

/// RAII pairing of a Server's cache with a LiveEngine's epoch sweeps:
///   Server server(live);            // live: shared_ptr<LiveEngine>
///   CacheAttachment link(*live, server.cache());
/// Detaches on destruction, so the cache can be destroyed safely.
class CacheAttachment {
 public:
  CacheAttachment(LiveEngine& live, ResultCache& cache)
      : live_(&live), cache_(&cache) {
    live_->AttachCache(cache_);
  }
  ~CacheAttachment() { live_->DetachCache(cache_); }
  CacheAttachment(const CacheAttachment&) = delete;
  CacheAttachment& operator=(const CacheAttachment&) = delete;

 private:
  LiveEngine* live_;
  ResultCache* cache_;
};

}  // namespace utk

#endif  // UTK_LIVE_LIVE_ENGINE_H_
