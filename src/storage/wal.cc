#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/serial.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

constexpr size_t kWalHeaderBytes = 16;  // magic | version | start_epoch
constexpr uint8_t kFrameInsert = 1;
constexpr uint8_t kFrameErase = 2;
constexpr uint8_t kFrameCommit = 3;
// A frame larger than this cannot be legitimate (the widest record is
// dim <= 1024 Scalars); treat it as tail damage instead of allocating.
constexpr uint32_t kMaxFramePayload = 1u << 20;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool WriteAll(int fd, const char* bytes, size_t len, std::string* error,
              const std::string& path) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, bytes + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("write " + path);
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::unique_ptr<WalWriter> WalWriter::Create(const std::string& path,
                                             uint64_t start_epoch,
                                             FsyncPolicy fsync,
                                             std::string* error) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("open " + path);
    return nullptr;
  }
  std::string header;
  AppendU32(&header, kWalMagic);
  AppendU32(&header, kWalVersion);
  AppendU64(&header, start_epoch);
  if (!WriteAll(fd, header.data(), header.size(), error, path)) {
    ::close(fd);
    return nullptr;
  }
  if (::fsync(fd) != 0) {
    if (error != nullptr) *error = Errno("fsync " + path);
    ::close(fd);
    return nullptr;
  }
  std::unique_ptr<WalWriter> w(new WalWriter());
  w->path_ = path;
  w->fd_ = fd;
  w->fsync_ = fsync;
  w->bytes_ = header.size();
  return w;
}

std::unique_ptr<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                                    uint64_t valid_bytes,
                                                    FsyncPolicy fsync,
                                                    std::string* error) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("open " + path);
    return nullptr;
  }
  // Drop the torn tail before the first fresh frame lands.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    if (error != nullptr) *error = Errno("ftruncate " + path);
    ::close(fd);
    return nullptr;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    if (error != nullptr) *error = Errno("lseek " + path);
    ::close(fd);
    return nullptr;
  }
  if (::fsync(fd) != 0) {
    if (error != nullptr) *error = Errno("fsync " + path);
    ::close(fd);
    return nullptr;
  }
  std::unique_ptr<WalWriter> w(new WalWriter());
  w->path_ = path;
  w->fd_ = fd;
  w->fsync_ = fsync;
  w->bytes_ = valid_bytes;
  return w;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool WalWriter::WriteFrame(const std::string& payload, std::string* error) {
  std::string frame;
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  AppendU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  if (!WriteAll(fd_, frame.data(), frame.size(), error, path_)) return false;
  bytes_ += frame.size();
  static obs::Counter& wal_bytes =
      obs::MetricRegistry::Global().GetCounter("utk_wal_bytes_total");
  wal_bytes.Add(static_cast<int64_t>(frame.size()));
  if (fsync_ == FsyncPolicy::kAlways && !SyncNow(error)) return false;
  return true;
}

bool WalWriter::SyncNow(std::string* error) {
  UTK_SPAN("wal.fsync");
  Timer timer;
  if (::fsync(fd_) != 0) {
    if (error != nullptr) *error = Errno("fsync " + path_);
    return false;
  }
  auto& reg = obs::MetricRegistry::Global();
  static obs::Counter& fsyncs = reg.GetCounter("utk_wal_fsyncs_total");
  static obs::Histogram& latency =
      reg.GetHistogram("utk_wal_fsync_latency_us");
  fsyncs.Add();
  latency.Observe(static_cast<int64_t>(timer.ElapsedMs() * 1000.0));
  return true;
}

bool WalWriter::Append(std::span<const UpdateOp> ops, uint64_t epoch,
                       std::string* error) {
  UTK_SPAN_VAL("wal.append", static_cast<int64_t>(ops.size()));
  static obs::Counter& appends =
      obs::MetricRegistry::Global().GetCounter("utk_wal_appends_total");
  appends.Add();
  if (!ok_) {
    if (error != nullptr) *error = last_error_;
    return false;
  }
  for (const UpdateOp& op : ops) {
    std::string payload;
    if (op.kind == UpdateKind::kInsert) {
      if (auto bad = CheckFiniteAttrs(op.record.attrs)) {
        if (error != nullptr) *error = "insert id " +
            std::to_string(op.record.id) + ": " + *bad;
        return false;
      }
      AppendU8(&payload, kFrameInsert);
      AppendI32(&payload, op.record.id);
      AppendU32(&payload, static_cast<uint32_t>(op.record.attrs.size()));
      for (Scalar v : op.record.attrs) AppendScalar(&payload, v);
    } else {
      AppendU8(&payload, kFrameErase);
      AppendI32(&payload, op.id);
    }
    if (!WriteFrame(payload, error)) return false;
  }
  std::string commit;
  AppendU8(&commit, kFrameCommit);
  AppendU64(&commit, epoch);
  if (!WriteFrame(commit, error)) return false;
  if (fsync_ == FsyncPolicy::kCommit && !SyncNow(error)) return false;
  ++batches_;
  return true;
}

void WalWriter::OnCommit(std::span<const UpdateOp> ops,
                         const Snapshot& view) {
  std::string err;
  if (!Append(ops, view.epoch, &err)) {
    ok_ = false;
    last_error_ = err;
  }
}

std::optional<WalReplay> ReadWal(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<WalReplay> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return fail("cannot open");
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string buf = ss.str();
  const char* base = buf.data();
  const size_t len = buf.size();

  size_t cur = 0;
  auto magic = ReadU32(base, len, &cur);
  auto version = ReadU32(base, len, &cur);
  auto start_epoch = ReadU64(base, len, &cur);
  if (!magic || !version || !start_epoch)
    return fail("too short for a WAL header");
  if (*magic != kWalMagic) return fail("bad magic (not a WAL file)");
  if (*version != kWalVersion)
    return fail("unsupported WAL version " + std::to_string(*version));

  WalReplay replay;
  replay.start_epoch = *start_epoch;
  replay.last_epoch = *start_epoch;
  replay.valid_bytes = kWalHeaderBytes;

  // Walk frames until the tail stops making sense. Everything before the
  // last commit marker is durable; anything after — a half-written frame, a
  // checksum mismatch, an uncommitted batch, garbage — is the droppable
  // tail. We never resync past damage: there is no way to distinguish a
  // forged frame boundary from a real one afterwards.
  std::vector<UpdateOp> pending;
  while (cur < len) {
    size_t fcur = cur;
    auto payload_len = ReadU32(base, len, &fcur);
    auto crc = ReadU32(base, len, &fcur);
    if (!payload_len || !crc || *payload_len > kMaxFramePayload ||
        fcur + *payload_len > len)
      break;  // torn length/crc prefix or truncated payload
    const char* payload = base + fcur;
    const size_t plen = *payload_len;
    if (Crc32(payload, plen) != *crc) break;  // bit damage
    size_t pcur = 0;
    auto type = ReadU8(payload, plen, &pcur);
    if (!type) break;
    if (*type == kFrameInsert) {
      auto id = ReadI32(payload, plen, &pcur);
      auto dim = ReadU32(payload, plen, &pcur);
      if (!id || !dim || *dim == 0 || *dim > 1024) break;
      UpdateOp op;
      op.kind = UpdateKind::kInsert;
      op.record.id = *id;
      op.id = *id;
      op.record.attrs.reserve(*dim);
      bool bad = false;
      for (uint32_t d = 0; d < *dim; ++d) {
        auto v = ReadScalar(payload, plen, &pcur);
        if (!v || !IsFiniteAttr(*v)) {
          bad = true;
          break;
        }
        op.record.attrs.push_back(*v);
      }
      if (bad || pcur != plen) break;
      pending.push_back(std::move(op));
    } else if (*type == kFrameErase) {
      auto id = ReadI32(payload, plen, &pcur);
      if (!id || pcur != plen) break;
      UpdateOp op;
      op.kind = UpdateKind::kErase;
      op.id = *id;
      pending.push_back(std::move(op));
    } else if (*type == kFrameCommit) {
      auto epoch = ReadU64(payload, plen, &pcur);
      // Commit markers are strictly sequential and never empty; anything
      // else is damage, and the batch it closes cannot be trusted.
      if (!epoch || pcur != plen || *epoch != replay.last_epoch + 1 ||
          pending.empty())
        break;
      replay.batches.push_back(std::move(pending));
      pending.clear();
      replay.last_epoch = *epoch;
      replay.valid_bytes = fcur + plen;
    } else {
      break;  // unknown frame type
    }
    cur = fcur + plen;
  }
  replay.dropped_bytes = len - replay.valid_bytes;
  return replay;
}

}  // namespace utk
