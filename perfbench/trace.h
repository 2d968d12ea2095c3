#ifndef OPDELTA_PERFBENCH_TRACE_H_
#define OPDELTA_PERFBENCH_TRACE_H_

// Tracing for the traced benchmark run: spans around every call the
// benchmark makes into the program, plus a timing Env that records a span
// for every file operation the program performs. Spans are kept in memory
// and reduced to per-layer figures when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers. The first group wraps benchmark calls into the
/// program; the second is file I/O seen by TimingEnv, classed by path.
enum class SpanKind : uint8_t {
  kCaptureBegin,    // OpDeltaCapture::Begin / Database::Begin
  kCaptureExecute,  // OpDeltaCapture::Execute / sql::Executor::Execute
  kCaptureCommit,   // OpDeltaCapture::Commit / Database::Commit
  kRound,           // DeltaHub::RunRound of a traffic round
  kBackfillRound,   // DeltaHub::RunRound of a side-table onboarding hub
  kScrubRound,      // DeltaHub::RunRound of a mirror-scrubbing hub
  kOlapLock,        // Database::LockTableShared
  kOlapScan,        // Database::Scan
  kOlapCommit,      // Database::Commit of the reader
  kWalAppend,
  kWalSync,
  kQueueAppend,
  kQueueSync,
  kQueueRead,
  kStateWrite,      // watermark / cursor temp-file append
  kStateSync,
  kStateRename,     // the atomic commit of a state file
  kPageRead,
  kPageWrite,
  kPageSync,
  kOtherIo,
  kCount,
};

/// The module under src/ a span's self time is charged to.
const char* SpanLayer(SpanKind kind);

struct Span {
  SpanKind kind;
  uint32_t id;
  uint32_t parent;  // 0 = root
  int64_t start_ns;
  int64_t end_ns;
  uint64_t bytes;
};

/// In-memory span log. Parent links: a span takes the innermost open span
/// of its own thread; a file-I/O span with none takes the open RunRound
/// span, so I/O done on hub worker threads is charged to its round.
class Tracer {
 public:
  uint32_t Open(int64_t* start_ns);
  void Close(SpanKind kind, uint32_t id, uint32_t parent, int64_t start_ns,
             uint64_t bytes);

  void SetRound(uint32_t id) { round_.store(id, std::memory_order_release); }

  /// Removes and returns every closed span (call once threads are quiet).
  std::vector<Span> TakeSpans();

 private:
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> round_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The process tracer: null in untraced runs, so every span is a no-op.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span on the active tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanKind kind_;
  uint32_t id_ = 0;
  uint32_t saved_parent_ = 0;
  int64_t start_ns_ = 0;
  uint64_t bytes_;
};

/// Forwards to `base` and records a span for each file append, sync,
/// read, write and rename on the active tracer.
class TimingEnv : public opdelta::Env {
 public:
  explicit TimingEnv(opdelta::Env* base) : base_(base) {}

  opdelta::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<opdelta::WritableFile>* out) override;
  opdelta::Status NewAppendableFile(
      const std::string& path,
      std::unique_ptr<opdelta::WritableFile>* out) override;
  opdelta::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<opdelta::RandomAccessFile>* out) override;
  opdelta::Status NewRandomRWFile(
      const std::string& path,
      std::unique_ptr<opdelta::RandomRWFile>* out) override;
  opdelta::Status ReadFileToString(const std::string& path,
                                   std::string* out) override;
  opdelta::Status WriteStringToFile(const std::string& path,
                                    opdelta::Slice data) override;
  bool FileExists(const std::string& path) override;
  bool DirExists(const std::string& path) override;
  opdelta::Status DeleteFile(const std::string& path) override;
  opdelta::Status RenameFile(const std::string& from,
                             const std::string& to) override;
  opdelta::Status GetFileSize(const std::string& path,
                              uint64_t* size) override;
  opdelta::Status Truncate(const std::string& path, uint64_t size) override;
  opdelta::Status CreateDir(const std::string& path) override;
  opdelta::Status RemoveDirAll(const std::string& path) override;
  opdelta::Status ListDir(const std::string& path,
                          std::vector<std::string>* children) override;

 private:
  opdelta::Env* base_;
};

/// Per-layer reduction of a span log. Spans under a backfill or scrub
/// round are left out, except those round spans themselves: their self
/// time is charged to the "backfill" and "scrub" layers.
struct LayerTimes {
  // Self time (span minus the union of its children) summed per layer,
  // in microseconds, keyed by SpanLayer().
  std::vector<std::pair<std::string, double>> self_us;
  // Per kind: count, summed duration (us) and summed bytes.
  uint64_t count[static_cast<size_t>(SpanKind::kCount)] = {};
  double total_us[static_cast<size_t>(SpanKind::kCount)] = {};
  uint64_t bytes[static_cast<size_t>(SpanKind::kCount)] = {};
  // Summed duration (us) of the spans whose ancestor chain reaches a
  // traffic round span.
  double in_round_us[static_cast<size_t>(SpanKind::kCount)] = {};

  uint64_t Count(SpanKind k) const { return count[static_cast<size_t>(k)]; }
  double TotalUs(SpanKind k) const { return total_us[static_cast<size_t>(k)]; }
  uint64_t Bytes(SpanKind k) const { return bytes[static_cast<size_t>(k)]; }
  double SelfUs(const std::string& layer) const;
};

LayerTimes Reduce(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // OPDELTA_PERFBENCH_TRACE_H_
