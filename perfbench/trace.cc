#include "trace.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace perfbench {

using opdelta::Slice;
using opdelta::Status;

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
thread_local uint32_t tls_current = 0;

enum class FileClass { kWal, kQueue, kState, kPage, kOther };

FileClass Classify(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() >= s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (base.rfind("wal-", 0) == 0) return FileClass::kWal;
  if (base == "queue.log") return FileClass::kQueue;
  if (base.rfind("watermarks", 0) == 0 || base.rfind("queue.cursor", 0) == 0) {
    return FileClass::kState;
  }
  if (ends_with(".db")) return FileClass::kPage;
  return FileClass::kOther;
}

SpanKind AppendKind(FileClass c) {
  switch (c) {
    case FileClass::kWal: return SpanKind::kWalAppend;
    case FileClass::kQueue: return SpanKind::kQueueAppend;
    case FileClass::kState: return SpanKind::kStateWrite;
    case FileClass::kPage: return SpanKind::kPageWrite;
    case FileClass::kOther: break;
  }
  return SpanKind::kOtherIo;
}

SpanKind SyncKind(FileClass c) {
  switch (c) {
    case FileClass::kWal: return SpanKind::kWalSync;
    case FileClass::kQueue: return SpanKind::kQueueSync;
    case FileClass::kState: return SpanKind::kStateSync;
    case FileClass::kPage: return SpanKind::kPageSync;
    case FileClass::kOther: break;
  }
  return SpanKind::kOtherIo;
}

SpanKind ReadKind(FileClass c) {
  switch (c) {
    case FileClass::kQueue: return SpanKind::kQueueRead;
    case FileClass::kPage: return SpanKind::kPageRead;
    default: break;
  }
  return SpanKind::kOtherIo;
}

class TimedWritable : public opdelta::WritableFile {
 public:
  TimedWritable(std::unique_ptr<opdelta::WritableFile> f, FileClass c)
      : f_(std::move(f)), c_(c) {}
  Status Append(Slice data) override {
    ScopedSpan span(AppendKind(c_), data.size());
    return f_->Append(data);
  }
  Status Flush() override { return f_->Flush(); }
  Status Sync() override {
    ScopedSpan span(SyncKind(c_));
    return f_->Sync();
  }
  Status Close() override { return f_->Close(); }
  uint64_t Size() const override { return f_->Size(); }

 private:
  std::unique_ptr<opdelta::WritableFile> f_;
  FileClass c_;
};

class TimedRandomAccess : public opdelta::RandomAccessFile {
 public:
  TimedRandomAccess(std::unique_ptr<opdelta::RandomAccessFile> f, FileClass c)
      : f_(std::move(f)), c_(c) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(ReadKind(c_), n);
    return f_->Read(offset, n, result, scratch);
  }
  uint64_t Size() const override { return f_->Size(); }

 private:
  std::unique_ptr<opdelta::RandomAccessFile> f_;
  FileClass c_;
};

class TimedRandomRW : public opdelta::RandomRWFile {
 public:
  TimedRandomRW(std::unique_ptr<opdelta::RandomRWFile> f, FileClass c)
      : f_(std::move(f)), c_(c) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(ReadKind(c_), n);
    return f_->Read(offset, n, result, scratch);
  }
  Status Write(uint64_t offset, Slice data) override {
    ScopedSpan span(AppendKind(c_), data.size());
    return f_->Write(offset, data);
  }
  Status Sync() override {
    ScopedSpan span(SyncKind(c_));
    return f_->Sync();
  }
  Status Close() override { return f_->Close(); }
  uint64_t Size() const override { return f_->Size(); }

 private:
  std::unique_ptr<opdelta::RandomRWFile> f_;
  FileClass c_;
};

}  // namespace

const char* SpanLayer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCaptureBegin:
    case SpanKind::kCaptureExecute:
    case SpanKind::kCaptureCommit:
      return "extract";
    case SpanKind::kRound:
      return "hub";
    case SpanKind::kBackfillRound:
      return "backfill";
    case SpanKind::kScrubRound:
      return "scrub";
    case SpanKind::kOlapLock:
    case SpanKind::kOlapScan:
    case SpanKind::kOlapCommit:
      return "engine";
    case SpanKind::kWalAppend:
    case SpanKind::kWalSync:
      return "txn";
    case SpanKind::kQueueAppend:
    case SpanKind::kQueueSync:
    case SpanKind::kQueueRead:
      return "transport";
    case SpanKind::kStateWrite:
    case SpanKind::kStateSync:
    case SpanKind::kStateRename:
      return "pipeline";
    case SpanKind::kPageRead:
    case SpanKind::kPageWrite:
    case SpanKind::kPageSync:
      return "storage";
    case SpanKind::kOtherIo:
    case SpanKind::kCount:
      break;
  }
  return "other_io";
}

uint32_t Tracer::Open(int64_t* start_ns) {
  *start_ns = NowNanos();
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Close(SpanKind kind, uint32_t id, uint32_t parent,
                   int64_t start_ns, uint64_t bytes) {
  const int64_t end = NowNanos();
  // File I/O outside any span of its own thread ran on a hub worker (or
  // the round's own thread): charge it to the open round.
  if (parent == 0 && kind >= SpanKind::kWalAppend) {
    parent = round_.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{kind, id, parent, start_ns, end, bytes});
}

std::vector<Span> Tracer::TakeSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(spans_);
  return out;
}

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }
void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t bytes)
    : tracer_(ActiveTracer()), kind_(kind), bytes_(bytes) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->Open(&start_ns_);
  saved_parent_ = tls_current;
  tls_current = id_;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tls_current = saved_parent_;
  tracer_->Close(kind_, id_, saved_parent_, start_ns_, bytes_);
}

Status TimingEnv::NewWritableFile(const std::string& path,
                                  std::unique_ptr<opdelta::WritableFile>* out) {
  std::unique_ptr<opdelta::WritableFile> f;
  Status st = base_->NewWritableFile(path, &f);
  if (st.ok()) *out = std::make_unique<TimedWritable>(std::move(f),
                                                      Classify(path));
  return st;
}

Status TimingEnv::NewAppendableFile(
    const std::string& path, std::unique_ptr<opdelta::WritableFile>* out) {
  std::unique_ptr<opdelta::WritableFile> f;
  Status st = base_->NewAppendableFile(path, &f);
  if (st.ok()) *out = std::make_unique<TimedWritable>(std::move(f),
                                                      Classify(path));
  return st;
}

Status TimingEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<opdelta::RandomAccessFile>* out) {
  std::unique_ptr<opdelta::RandomAccessFile> f;
  Status st = base_->NewRandomAccessFile(path, &f);
  if (st.ok()) *out = std::make_unique<TimedRandomAccess>(std::move(f),
                                                          Classify(path));
  return st;
}

Status TimingEnv::NewRandomRWFile(const std::string& path,
                                  std::unique_ptr<opdelta::RandomRWFile>* out) {
  std::unique_ptr<opdelta::RandomRWFile> f;
  Status st = base_->NewRandomRWFile(path, &f);
  if (st.ok()) *out = std::make_unique<TimedRandomRW>(std::move(f),
                                                      Classify(path));
  return st;
}

Status TimingEnv::ReadFileToString(const std::string& path, std::string* out) {
  ScopedSpan span(ReadKind(Classify(path)));
  return base_->ReadFileToString(path, out);
}

Status TimingEnv::WriteStringToFile(const std::string& path, Slice data) {
  ScopedSpan span(AppendKind(Classify(path)), data.size());
  return base_->WriteStringToFile(path, data);
}

bool TimingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
bool TimingEnv::DirExists(const std::string& path) {
  return base_->DirExists(path);
}
Status TimingEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

Status TimingEnv::RenameFile(const std::string& from, const std::string& to) {
  ScopedSpan span(Classify(to) == FileClass::kState ? SpanKind::kStateRename
                                                    : SpanKind::kOtherIo);
  return base_->RenameFile(from, to);
}

Status TimingEnv::GetFileSize(const std::string& path, uint64_t* size) {
  return base_->GetFileSize(path, size);
}
Status TimingEnv::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}
Status TimingEnv::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}
Status TimingEnv::RemoveDirAll(const std::string& path) {
  return base_->RemoveDirAll(path);
}
Status TimingEnv::ListDir(const std::string& path,
                          std::vector<std::string>* children) {
  return base_->ListDir(path, children);
}

double LayerTimes::SelfUs(const std::string& layer) const {
  for (const auto& [name, us] : self_us) {
    if (name == layer) return us;
  }
  return 0;
}

LayerTimes Reduce(const std::vector<Span>& spans) {
  LayerTimes out;
  std::unordered_map<uint32_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }

  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const size_t k = static_cast<size_t>(s.kind);
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;

    // Which round, if any, is this span under?
    SpanKind round = SpanKind::kCount;
    for (uint32_t p = s.parent; p != 0;) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      const SpanKind kind = spans[it->second].kind;
      if (kind == SpanKind::kRound || kind == SpanKind::kBackfillRound ||
          kind == SpanKind::kScrubRound) {
        round = kind;
        break;
      }
      p = spans[it->second].parent;
    }
    if (round == SpanKind::kBackfillRound || round == SpanKind::kScrubRound) {
      continue;
    }
    out.count[k]++;
    out.total_us[k] += dur_us;
    out.bytes[k] += s.bytes;
    if (round == SpanKind::kRound) out.in_round_us[k] += dur_us;

    // Self time: the span minus the union of its children, clipped.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (!open || lo > cur_hi) {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[SpanLayer(s.kind)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  out.self_us.assign(self.begin(), self.end());
  return out;
}

}  // namespace perfbench
