// Write-ahead log for the live-update stream — the mutable half of the
// persistence tier.
//
// A WAL extends a segment (storage/segment.h): the segment pins the catalog
// state at some epoch E, and the WAL records every committed update batch
// after E, in application order, so `segment state + WAL replay` reproduces
// the exact epoch-versioned LiveEngine state (same stable ids, same epoch,
// same tombstones). WalWriter implements the engine's UpdateLog hook
// (live/live_engine.h): OnCommit appends the batch's ops followed by a
// commit marker carrying the new epoch, then fsyncs per policy.
//
// Framing (little-endian via common/serial.h):
//
//   header  magic 'UTKW' | version | start_epoch u64
//   frame   payload_len u32 | crc32(payload) | payload
//   payload u8 type, then
//             kInsert: id i32 | dim u32 | dim Scalars
//             kErase:  id i32
//             kCommit: epoch u64
//
// Replay applies only complete, committed batches: ReadWal walks frames
// until the first truncated or checksum-failing frame, groups ops by the
// commit markers, and reports the byte offset of the last committed batch
// so the caller can truncate the torn tail (a crash mid-append, or any
// later bit damage, costs at most the uncommitted suffix — never a
// committed batch, and never a silently misparsed record).
#ifndef UTK_STORAGE_WAL_H_
#define UTK_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/workload.h"
#include "live/live_engine.h"

namespace utk {

inline constexpr uint32_t kWalMagic = 0x57'4B'54'55;  // "UTKW"
inline constexpr uint32_t kWalVersion = 1;

/// When appended bytes reach the disk.
enum class FsyncPolicy {
  kNone,    ///< never fsync — fastest, a crash may lose recent batches
  kCommit,  ///< one fsync per committed batch (the default)
  kAlways,  ///< one fsync per frame — the paranoid setting
};

class WalWriter final : public UpdateLog {
 public:
  /// Creates a fresh WAL at `path` (truncating any existing file) whose
  /// replay extends a segment saved at `start_epoch`.
  static std::unique_ptr<WalWriter> Create(const std::string& path,
                                           uint64_t start_epoch,
                                           FsyncPolicy fsync,
                                           std::string* error = nullptr);

  /// Reopens an existing WAL for appending, first truncating it to
  /// `valid_bytes` (the committed prefix ReadWal reported) so a torn tail
  /// never precedes fresh frames.
  static std::unique_ptr<WalWriter> OpenForAppend(const std::string& path,
                                                  uint64_t valid_bytes,
                                                  FsyncPolicy fsync,
                                                  std::string* error = nullptr);

  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// UpdateLog hook: appends `ops` + a commit marker for `view.epoch`.
  /// I/O failures latch the writer into a failed state (ok() == false)
  /// rather than throwing through the engine's commit path; the catalog
  /// surfaces the error on its next operation.
  void OnCommit(std::span<const UpdateOp> ops,
                const Snapshot& view) override;

  /// The append core. Returns false (with a diagnostic) on I/O failure or
  /// when a record violates the finite-attribute ingest policy.
  bool Append(std::span<const UpdateOp> ops, uint64_t epoch,
              std::string* error = nullptr);

  bool ok() const { return ok_; }
  const std::string& last_error() const { return last_error_; }
  /// Current file size (header + every appended frame).
  uint64_t bytes() const { return bytes_; }
  /// Committed batches appended through this writer.
  int64_t batches() const { return batches_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter() = default;
  bool WriteFrame(const std::string& payload, std::string* error);
  bool SyncNow(std::string* error);

  std::string path_;
  int fd_ = -1;
  FsyncPolicy fsync_ = FsyncPolicy::kCommit;
  uint64_t bytes_ = 0;
  int64_t batches_ = 0;
  bool ok_ = true;
  std::string last_error_;
};

/// Everything replay recovered from a WAL file.
struct WalReplay {
  uint64_t start_epoch = 0;  ///< epoch of the segment this WAL extends
  uint64_t last_epoch = 0;   ///< epoch after the last committed batch
  /// Committed batches in commit order; batches[i] replays as one
  /// ApplyBatch call (ops carry their assigned ids, so replay is id-exact).
  std::vector<std::vector<UpdateOp>> batches;
  /// File prefix holding the header and every committed batch — the offset
  /// to truncate to before appending again.
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes that were discarded (torn tail, bit damage, or
  /// an uncommitted trailing batch). 0 for a cleanly closed WAL.
  uint64_t dropped_bytes = 0;
};

/// Parses `path`. Returns nullopt (with a diagnostic) only when the file
/// cannot be a WAL at all — unopenable, too short for a header, bad magic
/// or version. Tail damage is not an error: the committed prefix comes
/// back and the tail is reported via dropped_bytes.
std::optional<WalReplay> ReadWal(const std::string& path,
                                 std::string* error = nullptr);

}  // namespace utk

#endif  // UTK_STORAGE_WAL_H_
