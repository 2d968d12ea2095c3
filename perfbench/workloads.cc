#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/env.h"
#include "engine/database.h"
#include "extract/trigger_extractor.h"
#include "hub/delta_hub.h"
#include "model.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/statement_cache.h"
#include "trace.h"

namespace perfbench {

using opdelta::Result;
using opdelta::Status;
using opdelta::catalog::Row;
namespace engine = opdelta::engine;
namespace hub = opdelta::hub;
namespace pipeline = opdelta::pipeline;
namespace sql = opdelta::sql;
namespace txn = opdelta::txn;

uint64_t RunResult::Attempted() const {
  uint64_t n = 0;
  for (const OpCount& op : ops) n += op.attempted;
  return n;
}

uint64_t RunResult::Failed() const {
  uint64_t n = 0;
  for (const OpCount& op : ops) n += op.failed;
  return n;
}

namespace {

// A harness error: the run cannot produce a result.
struct HarnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) throw HarnessError(what + ": " + st.ToString());
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  double Sum() const {
    double s = 0;
    for (double v : v_) s += v;
    return s;
  }
  double Mean() const { return v_.empty() ? 0 : Sum() / v_.size(); }
  /// Linear interpolation between closest ranks (q in [0, 1]).
  double Quantile(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// "name: median 1.23 unit, p99 4.56, n=789". The p99 is printed with
/// every median; a tail is only a tail with ten samples beyond it, so the
/// highest such percentile is named beside it when p99 has fewer.
std::string DescribeSamples(const std::string& name, const Samples& s,
                            const std::string& unit) {
  std::string line = name + ": median " + Fmt("%.6g", s.Median()) + " " +
                     unit + ", p99 " + Fmt("%.6g", s.Quantile(0.99));
  const double n = static_cast<double>(s.size());
  if (n < 1000) {
    for (double q : {0.9, 0.75}) {
      if (n * (1 - q) >= 10) {
        line += " (p" + std::to_string(static_cast<int>(q * 100)) + " " +
                Fmt("%.6g", s.Quantile(q)) + ": p99 has <10 samples beyond)";
        break;
      }
    }
  }
  line += ", n=" + std::to_string(s.size());
  return line;
}

int64_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Operation accounting.

struct Ops {
  OpCount source_txns{"source_txns"};
  OpCount rounds{"rounds"};
  OpCount olap_queries{"olap_queries"};
  OpCount backfill_chunks{"backfill_chunks"};
  OpCount scrub_chunks{"scrub_chunks"};
};

// ---------------------------------------------------------------------------
// Sources, warehouse and hub.

struct SourceRig {
  std::string name;
  std::string table;  // the same name at source and warehouse
  engine::Database* db = nullptr;
  std::unique_ptr<sql::Executor> exec;
  opdelta::extract::OpDeltaCapture* capture = nullptr;

  TableModel model;
  std::vector<int64_t> live;  // live keys, for uniform keyed picks
  std::unordered_map<int64_t, size_t> live_pos;
  int64_t next_id = 0;

  void AddLive(int64_t id) {
    live_pos[id] = live.size();
    live.push_back(id);
  }
  void RemoveLive(int64_t id) {
    const size_t pos = live_pos.at(id);
    live_pos[live.back()] = pos;
    live[pos] = live.back();
    live.pop_back();
    live_pos.erase(id);
  }
  int64_t PickLive(Rng& rng) const { return live[rng.Uniform(live.size())]; }
};

struct SourcePlan {
  std::string name;
  pipeline::Method method;
  std::string table;
  int64_t rows;
  bool mirror_populated;  // the warehouse starts with the same rows
  bool backfill_scrub;    // bootstrapped online, then scrubbed
  size_t apply_threads;
};

struct HubShape {
  size_t extract_threads;
  size_t apply_workers;
};

/// Databases, sources and hub of one run. Members are declared so that
/// the hubs go before the databases they use.
struct Rig {
  std::string dir;
  std::vector<std::unique_ptr<engine::Database>> dbs;
  engine::Database* wh = nullptr;
  std::vector<std::unique_ptr<SourceRig>> sources;
  std::unique_ptr<hub::DeltaHub> hub;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Teardown(); }

  void Teardown() {
    if (hub != nullptr) (void)hub->Stop();
    hub.reset();
    sources.clear();
    dbs.clear();
    wh = nullptr;
    if (!dir.empty()) (void)opdelta::Env::Default()->RemoveDirAll(dir);
    dir.clear();
  }

  engine::Database* OpenDb(const std::string& name) {
    std::unique_ptr<engine::Database> db;
    Check(engine::Database::Open(dir + "/" + name, engine::DatabaseOptions(),
                                 &db),
          "open " + name);
    dbs.push_back(std::move(db));
    return dbs.back().get();
  }
};

constexpr int64_t kPopulateBatch = 2048;

void Populate(SourceRig* src, engine::Database* mirror, int64_t rows,
              Traffic* traffic) {
  for (int64_t first = 0; first < rows; first += kPopulateBatch) {
    const int64_t last = std::min(rows, first + kPopulateBatch);
    std::vector<std::pair<int64_t, RowData>> batch;
    for (int64_t id = first; id < last; ++id) {
      batch.emplace_back(id, traffic->MakeRow());
    }
    for (engine::Database* db : {src->db, mirror}) {
      if (db == nullptr) continue;
      Check(db->WithTransaction([&](txn::Transaction* t) -> Status {
              for (const auto& [id, data] : batch) {
                OPDELTA_RETURN_IF_ERROR(
                    db->Insert(t, src->table, traffic->ToEngineRow(id, data)));
              }
              return Status::OK();
            }),
            "populate " + src->table);
    }
    for (auto& [id, data] : batch) {
      src->AddLive(id);
      src->model.Insert(id, std::move(data));
    }
  }
  src->next_id = rows;
}

std::unique_ptr<hub::DeltaHub> MakeHub(engine::Database* wh,
                                       const std::string& work_dir,
                                       const HubShape& shape) {
  hub::HubOptions options;
  options.work_dir = work_dir;
  options.extract_threads = shape.extract_threads;
  options.apply_workers = shape.apply_workers;
  Result<std::unique_ptr<hub::DeltaHub>> created =
      hub::DeltaHub::Create(wh, options);
  Check(created.status(), "create hub");
  return std::move(created.value());
}

/// Opens, creates and populates every database and sets the hub up: the
/// work `setup_s` times.
void BuildRig(const std::string& dir, const std::vector<SourcePlan>& plans,
              const HubShape& shape, Traffic* traffic, Rig* rig) {
  rig->dir = dir;
  (void)opdelta::Env::Default()->RemoveDirAll(dir);
  Check(opdelta::Env::Default()->CreateDir(dir), "mkdir " + dir);
  rig->wh = rig->OpenDb("wh");
  for (const SourcePlan& plan : plans) {
    auto src = std::make_unique<SourceRig>();
    src->name = plan.name;
    src->table = plan.table;
    src->db = rig->OpenDb("src_" + plan.name);
    Check(src->db->CreateTable(plan.table, PartsSchema()), "create source");
    Check(rig->wh->CreateTable(plan.table, PartsSchema()), "create mirror");
    Populate(src.get(), plan.mirror_populated ? rig->wh : nullptr, plan.rows,
             traffic);
    src->exec = std::make_unique<sql::Executor>(src->db);
    rig->sources.push_back(std::move(src));
  }
  rig->hub = MakeHub(rig->wh, dir + "/hub", shape);
  for (size_t i = 0; i < plans.size(); ++i) {
    hub::SourceSpec spec;
    spec.name = plans[i].name;
    spec.source = rig->sources[i]->db;
    spec.method = plans[i].method;
    spec.source_table = plans[i].table;
    spec.warehouse_table = plans[i].table;
    spec.backfill = plans[i].backfill_scrub;
    spec.scrub = plans[i].backfill_scrub;
    spec.apply_threads = plans[i].apply_threads;
    Check(rig->hub->AddSource(spec), "add source " + spec.name);
  }
  Check(rig->hub->Setup(), "hub setup");
  for (auto& src : rig->sources) src->capture = rig->hub->capture(src->name);
}

// ---------------------------------------------------------------------------
// Traffic execution.

enum class OpType { kInsert = 0, kUpdate = 1, kDelete = 2 };

/// A source transaction, and how the model changes once it commits.
struct PlannedTxn {
  std::vector<sql::Statement> stmts;
  std::function<void()> apply_to_model;
  uint64_t rows = 0;  // warehouse rows it changes
};

/// Runs one source transaction through the source's capture path: the
/// op-delta wrapper, or the plain executor for value-delta methods.
/// Returns true and the commit-return time when it committed.
bool RunSourceTxn(SourceRig* src, const PlannedTxn& planned,
                  Samples* latency_us, OpCount* counter, int64_t* commit_ns) {
  counter->attempted++;
  const int64_t start = NowNanos();
  std::unique_ptr<txn::Transaction> t;
  {
    ScopedSpan span(SpanKind::kCaptureBegin);
    if (src->capture != nullptr) {
      Result<std::unique_ptr<txn::Transaction>> begun = src->capture->Begin();
      if (!begun.ok()) {
        counter->failed++;
        std::fprintf(stderr, "begin on %s failed: %s\n", src->name.c_str(),
                     begun.status().ToString().c_str());
        return false;
      }
      t = std::move(begun.value());
    } else {
      t = src->db->Begin();
    }
  }
  Status st;
  for (const sql::Statement& stmt : planned.stmts) {
    ScopedSpan span(SpanKind::kCaptureExecute);
    Result<size_t> done = src->capture != nullptr
                              ? src->capture->Execute(t.get(), stmt)
                              : src->exec->Execute(t.get(), stmt);
    if (!done.ok()) {
      st = done.status();
      break;
    }
  }
  if (st.ok()) {
    ScopedSpan span(SpanKind::kCaptureCommit);
    st = src->capture != nullptr ? src->capture->Commit(t.get())
                                 : src->db->Commit(t.get());
  }
  if (!st.ok()) {
    if (src->capture != nullptr) {
      (void)src->capture->Abort(t.get());
    } else {
      (void)src->db->Abort(t.get());
    }
    counter->failed++;
    std::fprintf(stderr, "source txn on %s failed: %s\n", src->name.c_str(),
                 st.ToString().c_str());
    return false;
  }
  *commit_ns = NowNanos();
  latency_us->Add(static_cast<double>(*commit_ns - start) / 1e3);
  planned.apply_to_model();
  return true;
}

void PlanKeyedOp(SourceRig* src, OpType type, Traffic* traffic,
                 PlannedTxn* p) {
  p->rows++;
  std::function<void()> prior = std::move(p->apply_to_model);
  std::function<void()> mine;
  switch (type) {
    case OpType::kInsert: {
      const int64_t id = src->next_id++;
      RowData row = traffic->MakeRow();
      p->stmts.push_back(
          InsertRows(src->table, {traffic->ToEngineRow(id, row)}));
      mine = [src, id, row]() {
        src->model.Insert(id, row);
        src->AddLive(id);
      };
      break;
    }
    case OpType::kUpdate: {
      const int64_t id = src->PickLive(traffic->rng());
      RowData values = traffic->MakeUpdateValues();
      p->stmts.push_back(UpdateKeyRange(src->table, id, id + 1, values));
      mine = [src, id, values]() { src->model.Update(id, values); };
      break;
    }
    case OpType::kDelete: {
      const int64_t id = src->PickLive(traffic->rng());
      p->stmts.push_back(DeleteKeyRange(src->table, id, id + 1));
      mine = [src, id]() {
        src->model.Erase(id);
        src->RemoveLive(id);
      };
      break;
    }
  }
  p->apply_to_model = [prior = std::move(prior), mine = std::move(mine)]() {
    if (prior) prior();
    mine();
  };
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// One synchronous hub round; returns its wall time in ms.
double RunRound(hub::DeltaHub* hub, OpCount* counter,
                SpanKind kind = SpanKind::kRound) {
  counter->attempted++;
  const int64_t start = NowNanos();
  Status st;
  {
    ScopedSpan span(kind);
    if (Tracer* t = ActiveTracer()) t->SetRound(span.id());
    st = hub->RunRound();
    if (Tracer* t = ActiveTracer()) t->SetRound(0);
  }
  const double ms = Ms(NowNanos() - start);
  if (!st.ok()) {
    counter->failed++;
    std::fprintf(stderr, "round failed: %s\n", st.ToString().c_str());
  }
  return ms;
}

// ---------------------------------------------------------------------------
// The concurrent OLAP reader: a table-S lock, a full scan and an aggregate
// (count, sum of ids, sum of row hashes), due every 100 ms and timed from
// the moment it was due, so a stall also delays the queries behind it.

class OlapReader {
 public:
  static constexpr int64_t kPeriodNs = 100'000'000;

  struct Answer {
    int64_t due_ns;
    double latency_ms;  // from due to commit
    double lock_ms;
    double scan_ms;
    Digest digest;
  };

  OlapReader(engine::Database* db, std::string table)
      : db_(db), table_(std::move(table)) {}
  ~OlapReader() { Stop(); }
  OlapReader(const OlapReader&) = delete;
  OlapReader& operator=(const OlapReader&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop().
  const std::vector<Answer>& answers() const { return answers_; }
  const OpCount& ops() const { return ops_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Loop() {
    const int64_t t0 = NowNanos();
    for (int64_t k = 1; !stop_.load(); ++k) {
      const int64_t due = t0 + k * kPeriodNs;
      for (int64_t left = due - NowNanos(); left > 0 && !stop_.load();
           left = due - NowNanos()) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(left, 10'000'000)));
      }
      if (stop_.load()) break;
      Query(due);
    }
  }

  void Query(int64_t due) {
    ops_.attempted++;
    Digest digest;
    bool shape_ok = true;
    std::unique_ptr<txn::Transaction> t = db_->Begin();
    const int64_t lock_start = NowNanos();
    Status st;
    {
      ScopedSpan span(SpanKind::kOlapLock);
      st = db_->LockTableShared(t.get(), table_);
    }
    const int64_t scan_start = NowNanos();
    if (st.ok()) {
      ScopedSpan span(SpanKind::kOlapScan);
      st = db_->Scan(t.get(), table_, engine::Predicate::True(),
                     [&](const opdelta::storage::Rid&, const Row& row) {
                       int64_t id = 0;
                       uint64_t hash = 0;
                       RowData data;
                       if (EngineRowHash(row, &id, &hash, &data)) {
                         digest.Add(id, hash);
                       } else {
                         shape_ok = false;
                       }
                       return true;
                     });
    }
    const int64_t scan_end = NowNanos();
    if (st.ok()) {
      ScopedSpan span(SpanKind::kOlapCommit);
      st = db_->Commit(t.get());
    }
    if (!st.ok()) {
      (void)db_->Abort(t.get());
      ops_.failed++;
      errors_.push_back(st.ToString());
      return;
    }
    if (!shape_ok) errors_.push_back("OLAP scan saw a malformed row");
    answers_.push_back(Answer{due, Ms(NowNanos() - due),
                              Ms(scan_start - lock_start),
                              Ms(scan_end - scan_start), digest});
  }

  engine::Database* db_;
  std::string table_;
  std::atomic<bool> stop_{false};
  std::vector<Answer> answers_;
  OpCount ops_{"olap_queries"};
  std::vector<std::string> errors_;
  std::thread thread_;  // last: joined before the members it uses go
};

// ---------------------------------------------------------------------------
// Correctness checks, computed apart from the program.

/// Compares `db.table` row by row with the model (timestamp left out).
void CheckTable(engine::Database* db, const std::string& where,
                const std::string& table, const TableModel& model,
                RunResult* result) {
  size_t seen = 0;
  size_t wrong = 0;
  std::unordered_set<int64_t> ids;
  Status st = db->Scan(nullptr, table, engine::Predicate::True(),
                       [&](const opdelta::storage::Rid&, const Row& row) {
                         int64_t id = 0;
                         uint64_t hash = 0;
                         RowData data;
                         seen++;
                         if (!EngineRowHash(row, &id, &hash, &data) ||
                             !model.Contains(id) ||
                             RowHash(id, model.Get(id)) != hash ||
                             !ids.insert(id).second) {
                           wrong++;
                         }
                         return true;
                       });
  if (!st.ok()) {
    result->failures.push_back(where + " " + table +
                               ": scan failed: " + st.ToString());
  } else if (wrong != 0 || seen != model.size()) {
    result->failures.push_back(
        where + " " + table + ": " + std::to_string(seen) + " rows, " +
        std::to_string(wrong) + " differ from the model, which has " +
        std::to_string(model.size()));
  }
}

/// Count, sum of ids and sum of row hashes of `db.table`, as the OLAP
/// reader computes them; a malformed row makes the digest differ.
Digest TableDigest(engine::Database* db, const std::string& table) {
  Digest digest;
  Status st = db->Scan(nullptr, table, engine::Predicate::True(),
                       [&](const opdelta::storage::Rid&, const Row& row) {
                         int64_t id = 0;
                         uint64_t hash = 0;
                         RowData data;
                         if (!EngineRowHash(row, &id, &hash, &data)) {
                           hash = ~uint64_t{0};
                         }
                         digest.Add(id, hash);
                         return true;
                       });
  if (!st.ok()) digest.count = ~uint64_t{0};
  return digest;
}

/// Source and mirror both equal the model, so they equal each other.
void CheckMirror(engine::Database* wh, const SourceRig& src,
                 RunResult* result) {
  CheckTable(src.db, "source", src.table, src.model, result);
  CheckTable(wh, "warehouse", src.table, src.model, result);
}

void CheckHubHealth(const hub::HubStats& stats, RunResult* result) {
  if (stats.dead_letters != 0) {
    result->failures.push_back("hub dead-lettered " +
                               std::to_string(stats.dead_letters) +
                               " batches");
  }
  for (const hub::SourceStats& s : stats.sources) {
    if (s.duplicates_dropped != 0 || s.quarantined || s.dead_letters != 0) {
      result->failures.push_back(
          "source " + s.name + ": duplicates_dropped=" +
          std::to_string(s.duplicates_dropped) +
          " dead_letters=" + std::to_string(s.dead_letters) +
          (s.quarantined ? " quarantined: " + s.last_error : ""));
    }
    if (s.chunks_mismatched != 0) {
      result->failures.push_back("source " + s.name + ": scrub found " +
                                 std::to_string(s.chunks_mismatched) +
                                 " mismatched chunks on a correct mirror");
    }
  }
}

struct DigestHash {
  size_t operator()(const Digest& d) const {
    return std::hash<uint64_t>()(d.sum_hash ^ (d.sum_ids * 31) ^ d.count);
  }
};

/// Every OLAP answer must equal the model after some prefix of committed
/// source transactions: Op-Delta keeps transaction boundaries, and
/// parallel apply commits in source order. Answers due before `from_ns`
/// are not checked.
void CheckOlapAnswers(const OlapReader& reader,
                      const std::vector<Digest>& prefixes, int64_t from_ns,
                      RunResult* result) {
  std::unordered_set<Digest, DigestHash> valid(prefixes.begin(),
                                               prefixes.end());
  size_t bad = 0, checked = 0;
  for (const OlapReader::Answer& a : reader.answers()) {
    if (a.due_ns < from_ns) continue;
    checked++;
    if (valid.count(a.digest) == 0) bad++;
  }
  if (bad != 0) {
    result->failures.push_back(std::to_string(bad) + " of " +
                               std::to_string(checked) +
                               " OLAP answers match no committed prefix");
  }
  for (const std::string& e : reader.errors()) {
    result->failures.push_back("OLAP: " + e);
  }
}

// ---------------------------------------------------------------------------
// Counters the program already exposes.

struct PoolSnap {
  uint64_t hits = 0, misses = 0;
  uint64_t fetches() const { return hits + misses; }
};

PoolSnap Pool(engine::Database* db, const std::string& table) {
  PoolSnap s;
  engine::Table* t = db->GetTable(table);
  if (t == nullptr) return s;
  s.hits = t->pool()->stats().hits.load();
  s.misses = t->pool()->stats().misses.load();
  return s;
}

uint64_t TotalShipped(const hub::HubStats& stats) {
  uint64_t n = 0;
  for (const hub::SourceStats& s : stats.sources) n += s.bytes_shipped;
  return n;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Everything one run measures.

struct Measure {
  Samples setup_s;
  Samples source_txn_us;
  Samples freshness_ms;
  Samples round_ms;
  Samples window_ms[3];  // by OpType, bulk_window only
  Samples olap_ms, olap_lock_ms, olap_scan_ms;
  uint64_t txns = 0;
  uint64_t stmts = 0;
  uint64_t rows_applied = 0;
  double apply_round_s = 0;  // seconds inside RunRound
  double timed_s = 0;        // wall seconds of traffic cycles / bootstraps
  uint64_t bytes_shipped = 0;

  // Program counters, summed over the timed phases.
  uint64_t src_fetches = 0;
  uint64_t wh_hits = 0, wh_misses = 0;
  uint64_t wh_wal_bytes = 0;
  uint64_t batches_applied = 0, txns_applied = 0, txns_parallel = 0;
  double apply_ms_total = 0;
  uint64_t staging_peak = 0, producer_stalls = 0;
  uint64_t cache_hits = 0, cache_misses = 0;

  // Backfill and scrub: the bootstraps, or the maintenance hubs.
  uint64_t rows_backfilled = 0, rows_verified = 0;
  double backfill_s = 0, scrub_s = 0;
  Samples backfill_round_ms, scrub_round_ms;
  uint64_t backfill_chunks = 0, scrub_chunks = 0, inconclusive = 0;
  uint64_t backfill_src_fetches = 0, scrub_src_fetches = 0;

  // Wall seconds per phase of the run, for the report.
  std::vector<std::pair<std::string, double>> phases;
  void Phase(const std::string& name, int64_t* mark) {
    const int64_t now = NowNanos();
    phases.emplace_back(name, static_cast<double>(now - *mark) / 1e9);
    *mark = now;
  }

  // Traced runs: the spans of the timed phases and the statement texts.
  std::vector<Span> spans;
  std::vector<std::string> stmt_texts;

  // Wall-clock spans of the traffic (commits and their round), when
  // other hubs' rounds run between them.
  std::vector<std::pair<int64_t, int64_t>> traffic_windows;

  /// Takes the reader's timings: all of them, or with `windows` only those
  /// of queries due while traffic was running, so that the figure is that
  /// of a query concurrent with the traffic's apply.
  void CollectOlap(const OlapReader& reader, bool windows, Ops* ops) {
    size_t w = 0;
    for (const OlapReader::Answer& a : reader.answers()) {
      if (windows) {
        while (w < traffic_windows.size() &&
               traffic_windows[w].second <= a.due_ns) {
          ++w;
        }
        if (w == traffic_windows.size() ||
            a.due_ns < traffic_windows[w].first) {
          continue;
        }
      }
      olap_ms.Add(a.latency_ms);
      olap_lock_ms.Add(a.lock_ms);
      olap_scan_ms.Add(a.scan_ms);
    }
    ops->olap_queries.attempted += reader.ops().attempted;
    ops->olap_queries.failed += reader.ops().failed;
  }
};

/// Program counters of the traffic: the traffic hub's HubStats over the
/// timed phase, and the pool and WAL counters of the measured table over
/// each traffic cycle only (other hubs touch the same databases between
/// cycles).
class TrafficCounters {
 public:
  TrafficCounters(Rig* rig, std::string table)
      : rig_(rig), table_(std::move(table)), hub0_(rig->hub->Stats()) {}

  /// Call at the start and at the end of every traffic cycle.
  void CycleStart() { Snap(&src0_, &wh0_, &wal0_); }
  void CycleEnd(Measure* m) {
    PoolSnap src, wh;
    uint64_t wal = 0;
    Snap(&src, &wh, &wal);
    m->src_fetches += src.fetches() - src0_.fetches();
    m->wh_hits += wh.hits - wh0_.hits;
    m->wh_misses += wh.misses - wh0_.misses;
    m->wh_wal_bytes += wal - wal0_;
  }

  void End(Measure* m) {
    const hub::HubStats h = rig_->hub->Stats();
    m->batches_applied += h.batches_applied - hub0_.batches_applied;
    m->txns_applied += h.transactions_applied - hub0_.transactions_applied;
    m->txns_parallel += h.txns_parallel - hub0_.txns_parallel;
    m->apply_ms_total += static_cast<double>(h.apply_micros_total -
                                             hub0_.apply_micros_total) /
                         1e3;
    m->staging_peak = std::max(m->staging_peak, h.staging_peak_bytes);
    m->producer_stalls += h.producer_stalls - hub0_.producer_stalls;
    m->cache_hits += h.stmt_cache_hits - hub0_.stmt_cache_hits;
    m->cache_misses += h.stmt_cache_misses - hub0_.stmt_cache_misses;
    m->bytes_shipped += TotalShipped(h) - TotalShipped(hub0_);
  }

 private:
  void Snap(PoolSnap* src, PoolSnap* wh, uint64_t* wal) {
    *src = Pool(rig_->sources[0]->db, table_);
    *wh = Pool(rig_->wh, table_);
    *wal = rig_->wh->wal()->bytes_appended();
  }

  Rig* rig_;
  std::string table_;
  hub::HubStats hub0_;
  PoolSnap src0_, wh0_;
  uint64_t wal0_ = 0;
};

/// Each round returned only once the transactions committed before it were
/// applied: the premise of freshness_p50_ms.
void CheckLateRounds(uint64_t late_rounds, RunResult* result) {
  if (late_rounds != 0) {
    result->failures.push_back(
        std::to_string(late_rounds) +
        " rounds returned before applying every transaction committed "
        "ahead of them");
  }
}

/// The hub applied every committed source transaction, and no round was
/// late.
void CheckApplied(const Measure& m, uint64_t late_rounds, RunResult* result) {
  if (m.txns_applied != m.txns) {
    result->failures.push_back(
        "hub applied " + std::to_string(m.txns_applied) + " of " +
        std::to_string(m.txns) + " committed source transactions");
  }
  CheckLateRounds(late_rounds, result);
}

/// Starts span collection for a timed phase (traced runs only).
void StartTracing(Tracer* tracer) {
  if (tracer != nullptr) SetActiveTracer(tracer);
}

/// Stops span collection and keeps the phase's spans.
void StopTracing(Tracer* tracer, Measure* m) {
  if (tracer == nullptr) return;
  SetActiveTracer(nullptr);
  std::vector<Span> spans = tracer->TakeSpans();
  m->spans.insert(m->spans.end(), spans.begin(), spans.end());
}

// ---------------------------------------------------------------------------
// Onboarding: online backfill of empty mirrors, then one full scrub pass.

bool AllBackfilled(const hub::HubStats& stats) {
  for (const hub::SourceStats& s : stats.sources) {
    if (!s.backfill_done) return false;
  }
  return true;
}

bool AllScrubbed(const hub::HubStats& stats, uint64_t passes) {
  for (const hub::SourceStats& s : stats.sources) {
    if (s.last_scrub_pass < passes) return false;
  }
  return true;
}

uint64_t SourceFetches(const std::vector<SourceRig*>& sources) {
  uint64_t n = 0;
  for (const SourceRig* src : sources) {
    n += Pool(src->db, src->table).fetches();
  }
  return n;
}

/// Drives rounds of `hub` until every source has backfilled and then
/// finished `scrub_passes` full scrub passes. `between_rounds` commits
/// source traffic before each round; `after_round` sees each round's wall
/// time and may check the warehouse: its time is left out of the backfill
/// and scrub times and returned, in ns.
int64_t Bootstrap(hub::DeltaHub* hub, const std::vector<SourceRig*>& sources,
                  uint64_t scrub_passes, Ops* ops, Measure* m,
                  const std::function<void()>& between_rounds,
                  const std::function<void(double)>& after_round) {
  constexpr int kMaxRounds = 100000;
  const int64_t start = NowNanos();
  uint64_t fetches_mark = SourceFetches(sources);
  int64_t scrub_start = 0;
  int64_t paused_ns = 0, paused_at_scrub_ns = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    between_rounds();
    const double ms = RunRound(hub, &ops->rounds);
    const int64_t pause_start = NowNanos();
    after_round(ms);
    paused_ns += NowNanos() - pause_start;
    const hub::HubStats now = hub->Stats();
    (scrub_start == 0 ? m->backfill_round_ms : m->scrub_round_ms).Add(ms);
    if (scrub_start == 0 && AllBackfilled(now)) {
      scrub_start = NowNanos();
      paused_at_scrub_ns = paused_ns;
      m->backfill_s +=
          static_cast<double>(scrub_start - start - paused_ns) / 1e9;
      const uint64_t fetches = SourceFetches(sources);
      m->backfill_src_fetches += fetches - fetches_mark;
      fetches_mark = fetches;
    }
    if (scrub_start == 0 || !AllScrubbed(now, scrub_passes)) continue;

    m->scrub_s += static_cast<double>(NowNanos() - scrub_start -
                                      (paused_ns - paused_at_scrub_ns)) /
                  1e9;
    m->scrub_src_fetches += SourceFetches(sources) - fetches_mark;
    for (const hub::SourceStats& s : now.sources) {
      m->rows_backfilled += s.rows_backfilled;
      m->backfill_chunks += s.chunks_done;
      ops->backfill_chunks.attempted += s.chunks_done;
      const uint64_t scrubbed =
          s.chunks_scrubbed + s.chunks_mismatched + s.chunks_inconclusive;
      m->scrub_chunks += scrubbed;
      ops->scrub_chunks.attempted += scrubbed;
      m->inconclusive += s.chunks_inconclusive;
    }
    // Each pass verifies the whole table; the traffic (one insert and one
    // delete per transaction) keeps its size fixed.
    for (const SourceRig* src : sources) {
      m->rows_verified += scrub_passes * src->model.size();
    }
    return paused_ns;
  }
  throw HarnessError("bootstrap did not finish");
}

/// Background maintenance for oltp_keyed and bulk_window, so that every
/// workload reports backfill and scrub rates. Between traffic cycles it
/// runs rounds of two more hubs on the same databases: one scrubs the
/// mirror the traffic builds (op-delta capture into a log of its own for
/// the scrub watermarks), one bootstraps a 2,000-row side table by trigger
/// capture and online backfill, then drops it and starts the next. They
/// run only between traffic rounds, when every committed transaction is
/// applied, and their rounds are timed apart from the traffic's.
class Maintenance {
 public:
  static constexpr int64_t kSideRows = 2000;

  Maintenance(const RunConfig& config, Rig* rig, uint64_t scrub_chunk_rows,
              Ops* ops, Measure* m, RunResult* result)
      : rig_(rig),
        main_(rig->sources[0].get()),
        scrub_chunk_rows_(scrub_chunk_rows),
        ops_(ops),
        m_(m),
        result_(result),
        side_traffic_(config.seed ^ 0x51de51de51deULL) {
    hub::SourceSpec spec;
    spec.name = "verify";
    spec.source = main_->db;
    spec.method = pipeline::Method::kOpDelta;
    spec.op_log_table = "op_log_verify";
    spec.source_table = main_->table;
    spec.warehouse_table = main_->table;
    spec.scrub = true;
    spec.scrub_chunk_rows = scrub_chunk_rows;
    verify_hub_ = MakeHub(rig_->wh, rig_->dir + "/hub_verify", HubShape{1, 1});
    Check(verify_hub_->AddSource(spec), "add verify source");
    Check(verify_hub_->Setup(), "verify hub setup");
    NextSideTable();
  }

  Maintenance(const Maintenance&) = delete;
  Maintenance& operator=(const Maintenance&) = delete;

  /// One round of the scrubbing hub.
  void ScrubRound() {
    const uint64_t fetches = Pool(main_->db, main_->table).fetches();
    const double ms =
        RunRound(verify_hub_.get(), &ops_->rounds, SpanKind::kScrubRound);
    m_->scrub_src_fetches += Pool(main_->db, main_->table).fetches() - fetches;
    m_->scrub_round_ms.Add(ms);
    m_->scrub_s += ms / 1e3;
    const hub::SourceStats s = verify_hub_->Stats().sources[0];
    if (s.last_scrub_pass > passes_) {
      // A finished pass verified the table as the traffic left it.
      rows_in_passes_ += (s.last_scrub_pass - passes_) * main_->model.size();
      passes_ = s.last_scrub_pass;
      chunks_at_pass_end_ = s.chunks_scrubbed;
    }
  }

  /// One round of the onboarding hub; a finished side table is checked,
  /// dropped and replaced by a fresh one.
  void BackfillRound() {
    const uint64_t fetches = Pool(side_->db, side_->table).fetches();
    const double ms =
        RunRound(side_hub_.get(), &ops_->rounds, SpanKind::kBackfillRound);
    m_->backfill_src_fetches +=
        Pool(side_->db, side_->table).fetches() - fetches;
    m_->backfill_round_ms.Add(ms);
    m_->backfill_s += ms / 1e3;
    if (side_hub_->Stats().sources[0].backfill_done) {
      RetireSideTable(true);
      NextSideTable();
    }
  }

  /// Stops both hubs and books their work.
  void Finish() {
    const hub::SourceStats s = verify_hub_->Stats().sources[0];
    // Chunks of an unfinished pass each covered a full chunk of rows.
    m_->rows_verified +=
        rows_in_passes_ +
        (s.chunks_scrubbed - chunks_at_pass_end_) * scrub_chunk_rows_;
    const uint64_t scrubbed =
        s.chunks_scrubbed + s.chunks_mismatched + s.chunks_inconclusive;
    m_->scrub_chunks += scrubbed;
    ops_->scrub_chunks.attempted += scrubbed;
    m_->inconclusive += s.chunks_inconclusive;
    CheckHubHealth(verify_hub_->Stats(), result_);
    Check(verify_hub_->Stop(), "stop verify hub");
    RetireSideTable(false);
  }

 private:
  void NextSideTable() {
    side_ = std::make_unique<SourceRig>();
    side_->name = "side" + std::to_string(++sides_);
    side_->table = "side_parts_" + std::to_string(sides_);
    side_->db = main_->db;
    Check(side_->db->CreateTable(side_->table, PartsSchema()), "create side");
    Check(rig_->wh->CreateTable(side_->table, PartsSchema()),
          "create side mirror");
    Populate(side_.get(), nullptr, kSideRows, &side_traffic_);
    hub::SourceSpec spec;
    spec.name = side_->name;
    spec.source = side_->db;
    spec.method = pipeline::Method::kTrigger;
    spec.source_table = side_->table;
    spec.warehouse_table = side_->table;
    spec.backfill = true;
    side_hub_ = MakeHub(rig_->wh, rig_->dir + "/hub_" + side_->name,
                        HubShape{1, 1});
    Check(side_hub_->AddSource(spec), "add side source");
    Check(side_hub_->Setup(), "side hub setup");
  }

  /// Books and stops the side hub. A finished table is checked against
  /// its model and dropped with its capture table (every table holds an
  /// 8 MB buffer pool, so peak RSS stays independent of how many ran).
  void RetireSideTable(bool finished) {
    const hub::HubStats stats = side_hub_->Stats();
    m_->rows_backfilled += stats.sources[0].rows_backfilled;
    m_->backfill_chunks += stats.sources[0].chunks_done;
    ops_->backfill_chunks.attempted += stats.sources[0].chunks_done;
    CheckHubHealth(stats, result_);
    Check(side_hub_->Stop(), "stop side hub");
    side_hub_.reset();
    if (!finished) return;
    CheckMirror(rig_->wh, *side_, result_);
    Check(side_->db->DropTable(side_->table), "drop side");
    Check(side_->db->DropTable(
              opdelta::extract::TriggerExtractor::DeltaTableName(
                  side_->table)),
          "drop side capture table");
    Check(rig_->wh->DropTable(side_->table), "drop side mirror");
  }

  Rig* rig_;
  SourceRig* main_;
  uint64_t scrub_chunk_rows_;
  Ops* ops_;
  Measure* m_;
  RunResult* result_;
  Traffic side_traffic_;
  std::unique_ptr<hub::DeltaHub> verify_hub_;
  uint64_t passes_ = 0;
  uint64_t rows_in_passes_ = 0;
  uint64_t chunks_at_pass_end_ = 0;
  std::unique_ptr<SourceRig> side_;
  std::unique_ptr<hub::DeltaHub> side_hub_;
  int sides_ = 0;
};

/// Sets a rig up `repeats` times from scratch, timing each; the last one
/// stays open. oltp_keyed and bulk_window set up half their samples before
/// the traffic and half after it, so that setup_s is a median over the
/// whole run rather than over its first seconds.
void SetUpRepeated(const RunConfig& config, int repeats,
                   const std::vector<SourcePlan>& plans, const HubShape& shape,
                   Rig* rig, Measure* m) {
  for (int i = 0; i < repeats; ++i) {
    rig->Teardown();
    Traffic traffic(config.seed);  // the same tables on every set-up
    const int64_t start = NowNanos();
    BuildRig(config.data_dir + "/rig", plans, shape, &traffic, rig);
    m->setup_s.Add(SecondsSince(start));
  }
}

/// The stream of traffic a run commits after set-up.
uint64_t TrafficSeed(const RunConfig& config) {
  return config.seed * 0x9e3779b97f4a7c15ULL + 0x7a11c;
}

// ---------------------------------------------------------------------------
// oltp_keyed: one-statement keyed transactions, a round every 16 commits.

/// The timed traffic of oltp_keyed on a set-up rig, and its checks.
void OltpTraffic(const RunConfig& config, Tracer* tracer, Rig* rig,
                 Ops* ops, Measure* m, RunResult* result, int64_t* mark) {
  SourceRig* src = rig->sources[0].get();
  Traffic traffic(TrafficSeed(config));
  // A pass over 20k rows in 256-row chunks: 79 scrub rounds.
  Maintenance maintenance(config, rig, 256, ops, m, result);

  // 16 single-statement txns per round: 8 updates, 4 deletes, 4 inserts.
  std::vector<OpType> mix;
  for (int i = 0; i < 8; ++i) mix.push_back(OpType::kUpdate);
  for (int i = 0; i < 4; ++i) mix.push_back(OpType::kDelete);
  for (int i = 0; i < 4; ++i) mix.push_back(OpType::kInsert);

  std::vector<Digest> prefixes = {src->model.digest()};
  OlapReader reader(rig->wh, src->table);
  TrafficCounters counters(rig, src->table);
  const uint64_t applied_base = rig->hub->Stats().transactions_applied;
  uint64_t late_rounds = 0;
  StartTracing(tracer);
  reader.Start();
  const int64_t start = NowNanos();
  std::vector<int64_t> commits;
  for (uint64_t cycle = 0; cycle == 0 || SecondsSince(start) < config.seconds;
       ++cycle) {
    const int64_t cycle_start = NowNanos();
    counters.CycleStart();
    Shuffle(&mix, &traffic.rng());
    commits.clear();
    for (OpType op : mix) {
      PlannedTxn p;
      PlanKeyedOp(src, op, &traffic, &p);
      int64_t commit_ns = 0;
      if (!RunSourceTxn(src, p, &m->source_txn_us, &ops->source_txns,
                        &commit_ns)) {
        continue;
      }
      commits.push_back(commit_ns);
      prefixes.push_back(src->model.digest());
      m->rows_applied += p.rows;
      m->stmts += p.stmts.size();
      if (tracer != nullptr) m->stmt_texts.push_back(p.stmts[0].ToSql());
    }
    const double ms = RunRound(rig->hub.get(), &ops->rounds);
    const int64_t visible = NowNanos();
    for (int64_t c : commits) m->freshness_ms.Add(Ms(visible - c));
    m->round_ms.Add(ms);
    m->apply_round_s += ms / 1e3;
    m->txns += commits.size();
    if (rig->hub->Stats().transactions_applied - applied_base != m->txns) {
      late_rounds++;
    }
    counters.CycleEnd(m);
    m->traffic_windows.emplace_back(cycle_start, NowNanos());
    m->timed_s += SecondsSince(cycle_start);

    // About a fifth of the time scrubs, a sixth backfills.
    maintenance.ScrubRound();
    if (cycle % 2 == 0) maintenance.BackfillRound();
  }
  reader.Stop();
  maintenance.Finish();
  StopTracing(tracer, m);
  counters.End(m);
  m->CollectOlap(reader, true, ops);
  m->Phase("traffic", mark);

  CheckHubHealth(rig->hub->Stats(), result);
  CheckApplied(*m, late_rounds, result);
  CheckOlapAnswers(reader, prefixes, 0, result);
  CheckMirror(rig->wh, *src, result);
  m->Phase("checks", mark);
}

void RunOltpKeyed(const RunConfig& config, Tracer* tracer, Ops* ops,
                  Measure* m, RunResult* result) {
  constexpr int64_t kRows = 20000;
  constexpr int kSetups = 8;  // before the traffic, and as many after it
  const std::vector<SourcePlan> plans = {
      {"oltp", pipeline::Method::kOpDelta, "parts", kRows, true, false, 2}};
  int64_t mark = NowNanos();
  Rig rig;
  SetUpRepeated(config, kSetups, plans, HubShape{1, 1}, &rig, m);
  m->Phase("setup", &mark);
  OltpTraffic(config, tracer, &rig, ops, m, result, &mark);
  SetUpRepeated(config, kSetups, plans, HubShape{1, 1}, &rig, m);
  m->Phase("setup again", &mark);
}

// ---------------------------------------------------------------------------
// bulk_window: 2,000-row range statements, a round after each.

/// The timed traffic of bulk_window on a set-up rig, and its checks.
void BulkTraffic(const RunConfig& config, Tracer* tracer, Rig* rig,
                 int64_t rows, Ops* ops, Measure* m, RunResult* result,
                 int64_t* mark) {
  constexpr int64_t kRange = 2000;
  // An UPDATE or DELETE of 2,000 rows ships its statement text, not the
  // rows (§4.1): its frame stays under this size whatever it touches.
  constexpr uint64_t kSmallFrameBytes = 1024;
  SourceRig* src = rig->sources[0].get();
  Traffic traffic(TrafficSeed(config));
  // A scrub round here costs two scans of 100k rows whatever the chunk
  // size; 2,048-row chunks make a pass 49 rounds.
  Maintenance maintenance(config, rig, 2048, ops, m, result);

  int64_t lo = 0, hi = rows;  // live keys are exactly [lo, hi)
  std::vector<OpType> triple = {OpType::kInsert, OpType::kUpdate,
                                OpType::kDelete};
  std::vector<Digest> prefixes = {src->model.digest()};
  uint64_t oversized = 0;
  OlapReader reader(rig->wh, src->table);
  TrafficCounters counters(rig, src->table);
  const uint64_t applied_base = rig->hub->Stats().transactions_applied;
  uint64_t late_rounds = 0;
  StartTracing(tracer);
  reader.Start();
  const int64_t start = NowNanos();
  do {
    Shuffle(&triple, &traffic.rng());
    for (OpType op : triple) {
      const int64_t cycle_start = NowNanos();
      counters.CycleStart();
      PlannedTxn p;
      p.rows = kRange;
      if (op == OpType::kInsert) {
        std::vector<Row> rows;
        std::vector<RowData> data;
        for (int64_t id = hi; id < hi + kRange; ++id) {
          data.push_back(traffic.MakeRow());
          rows.push_back(traffic.ToEngineRow(id, data.back()));
        }
        p.stmts.push_back(InsertRows(src->table, std::move(rows)));
        p.apply_to_model = [src, first = hi, data = std::move(data)]() {
          for (size_t i = 0; i < data.size(); ++i) {
            src->model.Insert(first + static_cast<int64_t>(i), data[i]);
          }
        };
        hi += kRange;
      } else if (op == OpType::kUpdate) {
        const int64_t a =
            lo + static_cast<int64_t>(traffic.rng().Uniform(
                     static_cast<uint64_t>(hi - lo - kRange + 1)));
        RowData values = traffic.MakeUpdateValues();
        p.stmts.push_back(UpdateKeyRange(src->table, a, a + kRange, values));
        p.apply_to_model = [src, a, values]() {
          for (int64_t id = a; id < a + kRange; ++id) {
            src->model.Update(id, values);
          }
        };
      } else {
        p.stmts.push_back(DeleteKeyRange(src->table, lo, lo + kRange));
        p.apply_to_model = [src, first = lo]() {
          for (int64_t id = first; id < first + kRange; ++id) {
            src->model.Erase(id);
          }
        };
        lo += kRange;
      }
      int64_t commit_ns = 0;
      if (!RunSourceTxn(src, p, &m->source_txn_us, &ops->source_txns,
                        &commit_ns)) {
        throw HarnessError("bulk source transaction failed");
      }
      prefixes.push_back(src->model.digest());
      m->rows_applied += p.rows;
      m->stmts += 1;
      if (tracer != nullptr) m->stmt_texts.push_back(p.stmts[0].ToSql());
      const uint64_t shipped0 = TotalShipped(rig->hub->Stats());
      const double ms = RunRound(rig->hub.get(), &ops->rounds);
      const int64_t visible = NowNanos();
      const hub::HubStats after = rig->hub->Stats();
      const uint64_t frame = TotalShipped(after) - shipped0;
      if (op != OpType::kInsert && frame > kSmallFrameBytes) oversized++;
      m->freshness_ms.Add(Ms(visible - commit_ns));
      m->round_ms.Add(ms);
      m->window_ms[static_cast<int>(op)].Add(ms);
      m->apply_round_s += ms / 1e3;
      m->txns++;
      if (after.transactions_applied - applied_base != m->txns) late_rounds++;
      counters.CycleEnd(m);
      m->traffic_windows.emplace_back(cycle_start, NowNanos());
      m->timed_s += SecondsSince(cycle_start);
    }
    // After each group of three: about a fifth of the time scrubs, a
    // sixth backfills.
    maintenance.ScrubRound();
    maintenance.BackfillRound();
  } while (SecondsSince(start) < config.seconds);
  reader.Stop();
  maintenance.Finish();
  StopTracing(tracer, m);
  counters.End(m);
  m->CollectOlap(reader, true, ops);
  m->Phase("traffic", mark);

  CheckHubHealth(rig->hub->Stats(), result);
  CheckApplied(*m, late_rounds, result);
  if (oversized != 0) {
    result->failures.push_back(
        std::to_string(oversized) +
        " range UPDATE/DELETE frames exceeded " +
        std::to_string(kSmallFrameBytes) + " bytes");
  }
  CheckOlapAnswers(reader, prefixes, 0, result);
  CheckMirror(rig->wh, *src, result);
  m->Phase("checks", mark);
}

void RunBulkWindow(const RunConfig& config, Tracer* tracer, Ops* ops,
                   Measure* m, RunResult* result) {
  constexpr int64_t kRows = 100000;
  constexpr int kSetups = 6;  // before the traffic, and as many after it
  const std::vector<SourcePlan> plans = {
      {"bulk", pipeline::Method::kOpDelta, "parts", kRows, true, false, 1}};
  int64_t mark = NowNanos();
  Rig rig;
  SetUpRepeated(config, kSetups, plans, HubShape{1, 1}, &rig, m);
  m->Phase("setup", &mark);
  BulkTraffic(config, tracer, &rig, kRows, ops, m, result, &mark);
  SetUpRepeated(config, kSetups, plans, HubShape{1, 1}, &rig, m);
  m->Phase("setup again", &mark);
}

// ---------------------------------------------------------------------------
// fleet_bootstrap: four sources bootstrapped online under light traffic.

void RunFleetBootstrap(const RunConfig& config, Tracer* tracer, Ops* ops,
                       Measure* m, RunResult* result) {
  constexpr int64_t kRows = 4000;
  constexpr int kSetups = 3;
  constexpr uint64_t kScrubPasses = 3;
  const std::vector<SourcePlan> plans = {
      {"a", pipeline::Method::kOpDelta, "parts_a", kRows, false, true, 1},
      {"b", pipeline::Method::kOpDelta, "parts_b", kRows, false, true, 1},
      {"c", pipeline::Method::kLog, "parts_c", kRows, false, true, 1},
      {"d", pipeline::Method::kTrigger, "parts_d", kRows, false, true, 1}};
  const int64_t start = NowNanos();
  // Whole bootstraps, each from a fresh set-up, until the run length.
  do {
    Rig rig;
    SetUpRepeated(config, kSetups, plans, HubShape{2, 2}, &rig, m);
    Traffic traffic(TrafficSeed(config));
    SourceRig* watched = rig.sources[0].get();  // the OLAP reader's table
    std::vector<Digest> prefixes = {watched->model.digest()};
    std::vector<SourceRig*> sources;
    for (auto& src : rig.sources) sources.push_back(src.get());

    std::vector<int64_t> commits;
    int64_t watched_mirrored_ns = 0;  // first round end with its backfill done
    uint64_t late_rounds = 0;
    TrafficCounters counters(&rig, watched->table);
    auto between_rounds = [&]() {
      counters.CycleStart();
      commits.clear();
      for (SourceRig* src : sources) {
        // A small mixed transaction: update, insert and delete by key.
        PlannedTxn p;
        PlanKeyedOp(src, OpType::kUpdate, &traffic, &p);
        PlanKeyedOp(src, OpType::kInsert, &traffic, &p);
        PlanKeyedOp(src, OpType::kDelete, &traffic, &p);
        int64_t commit_ns = 0;
        if (!RunSourceTxn(src, p, &m->source_txn_us, &ops->source_txns,
                          &commit_ns)) {
          continue;
        }
        commits.push_back(commit_ns);
        if (src == watched) prefixes.push_back(src->model.digest());
        m->rows_applied += p.rows;
        m->stmts += p.stmts.size();
        if (tracer != nullptr) {
          for (const sql::Statement& s : p.stmts) {
            m->stmt_texts.push_back(s.ToSql());
          }
        }
      }
    };
    auto after_round = [&](double ms) {
      const int64_t visible = NowNanos();
      for (int64_t c : commits) m->freshness_ms.Add(Ms(visible - c));
      m->round_ms.Add(ms);
      m->apply_round_s += ms / 1e3;
      m->txns += commits.size();
      counters.CycleEnd(m);
      // Freshness takes every commit before the round as visible at its
      // end. Check it: every shipped batch is applied, and each mirror
      // whose backfill is done equals its model.
      const hub::HubStats stats = rig.hub->Stats();
      bool late = false;
      for (const hub::SourceStats& s : stats.sources) {
        SourceRig* src = nullptr;
        for (SourceRig* candidate : sources) {
          if (candidate->name == s.name) src = candidate;
        }
        if (s.batches_applied != s.batches_shipped) late = true;
        if (s.backfill_done && src != nullptr &&
            !(TableDigest(rig.wh, src->table) == src->model.digest())) {
          late = true;
        }
        if (src == watched && s.backfill_done && watched_mirrored_ns == 0) {
          watched_mirrored_ns = visible;
        }
      }
      if (late) late_rounds++;
    };

    OlapReader reader(rig.wh, watched->table);
    StartTracing(tracer);
    reader.Start();
    const int64_t phase_start = NowNanos();
    const int64_t checks_ns =
        Bootstrap(rig.hub.get(), sources, kScrubPasses, ops, m,
                  between_rounds, after_round);
    m->timed_s +=
        static_cast<double>(NowNanos() - phase_start - checks_ns) / 1e9;
    reader.Stop();
    StopTracing(tracer, m);
    counters.End(m);
    m->CollectOlap(reader, false, ops);
    // Backfilled rows reach the warehouse inside rounds too.
    const hub::HubStats stats = rig.hub->Stats();
    for (const hub::SourceStats& s : stats.sources) {
      m->rows_applied += s.rows_backfilled;
    }
    CheckHubHealth(stats, result);
    CheckLateRounds(late_rounds, result);
    // Before its backfill completes the watched mirror is partial by
    // design; from then on every answer must be a committed prefix.
    if (watched_mirrored_ns != 0) {
      CheckOlapAnswers(reader, prefixes, watched_mirrored_ns, result);
    }
    for (SourceRig* src : sources) CheckMirror(rig.wh, *src, result);
  } while (SecondsSince(start) < config.seconds);
}

// ---------------------------------------------------------------------------
// Reporting.

void AddMetric(std::vector<Metric>* out, const std::string& name,
               double value, const std::string& unit) {
  out->push_back(Metric{name, value, unit});
}

/// Re-parses the run's statement texts with and without the cache.
void ParseReplay(const std::vector<std::string>& texts, double* parse_us,
                 double* cached_us) {
  *parse_us = *cached_us = 0;
  if (texts.empty()) return;
  int64_t start = NowNanos();
  for (const std::string& text : texts) {
    Check(sql::Parser::Parse(text).status(), "replay parse");
  }
  *parse_us = static_cast<double>(NowNanos() - start) / 1e3 /
              static_cast<double>(texts.size());
  sql::StatementCache cache;
  start = NowNanos();
  for (const std::string& text : texts) {
    Check(cache.Parse(text).status(), "replay cached parse");
  }
  *cached_us = static_cast<double>(NowNanos() - start) / 1e3 /
               static_cast<double>(texts.size());
}

void EndToEnd(const Measure& m, RunResult* r) {
  std::vector<Metric>* e = &r->end_to_end;
  AddMetric(e, "source_txn_p50_us", m.source_txn_us.Median(), "us");
  AddMetric(e, "freshness_p50_ms", m.freshness_ms.Median(), "ms");
  AddMetric(e, "e2e_txns_per_s",
            Ratio(static_cast<double>(m.txns), m.timed_s), "txn/s");
  AddMetric(e, "apply_rows_per_s",
            Ratio(static_cast<double>(m.rows_applied), m.apply_round_s),
            "rows/s");
  AddMetric(e, "olap_query_p50_ms", m.olap_ms.Median(), "ms");
  AddMetric(e, "ship_bytes_per_txn",
            Ratio(static_cast<double>(m.bytes_shipped),
                  static_cast<double>(m.txns)),
            "B");
  AddMetric(e, "backfill_rows_per_s",
            Ratio(static_cast<double>(m.rows_backfilled), m.backfill_s),
            "rows/s");
  AddMetric(e, "scrub_rows_per_s",
            Ratio(static_cast<double>(m.rows_verified), m.scrub_s), "rows/s");
  AddMetric(e, "peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0,
            "MB");
  AddMetric(e, "setup_s", m.setup_s.Median(), "s");
}

void PerLayer(const Measure& m, RunResult* r) {
  const LayerTimes lt = Reduce(m.spans);
  const double rounds = static_cast<double>(m.round_ms.size());
  const double txns = static_cast<double>(m.txns);
  const double stmts = static_cast<double>(m.stmts);
  auto in_round_us = [&](std::initializer_list<SpanKind> kinds) {
    double us = 0;
    for (SpanKind k : kinds) us += lt.in_round_us[static_cast<size_t>(k)];
    return us;
  };
  double parse_us = 0, cached_us = 0;
  ParseReplay(m.stmt_texts, &parse_us, &cached_us);

  std::vector<Metric>* p = &r->per_layer;
  AddMetric(p, "extract.execute_us_per_stmt",
            Ratio(lt.TotalUs(SpanKind::kCaptureExecute),
                  static_cast<double>(lt.Count(SpanKind::kCaptureExecute))),
            "us");
  AddMetric(p, "extract.commit_us_per_txn",
            Ratio(lt.TotalUs(SpanKind::kCaptureCommit),
                  static_cast<double>(lt.Count(SpanKind::kCaptureCommit))),
            "us");
  AddMetric(p, "storage.src_page_fetches_per_stmt",
            Ratio(static_cast<double>(m.src_fetches), stmts), "count");
  AddMetric(p, "storage.wh_pool_miss_ratio",
            Ratio(static_cast<double>(m.wh_misses),
                  static_cast<double>(m.wh_hits + m.wh_misses)),
            "ratio");
  AddMetric(p, "storage.page_io_us_per_round",
            Ratio(in_round_us({SpanKind::kPageRead, SpanKind::kPageWrite,
                               SpanKind::kPageSync}),
                  rounds),
            "us");
  AddMetric(p, "hub.round_ms", m.round_ms.Mean(), "ms");
  AddMetric(p, "hub.window_ms_insert", m.window_ms[0].Median(), "ms");
  AddMetric(p, "hub.window_ms_update", m.window_ms[1].Median(), "ms");
  AddMetric(p, "hub.window_ms_delete", m.window_ms[2].Median(), "ms");
  AddMetric(p, "hub.apply_ms_per_batch",
            Ratio(m.apply_ms_total, static_cast<double>(m.batches_applied)),
            "ms");
  AddMetric(p, "hub.outside_apply_ms_per_round",
            Ratio(m.round_ms.Sum() - m.apply_ms_total, rounds), "ms");
  AddMetric(p, "hub.parallel_txn_share",
            Ratio(static_cast<double>(m.txns_parallel),
                  static_cast<double>(m.txns_applied)),
            "ratio");
  AddMetric(p, "hub.staging_peak_bytes", static_cast<double>(m.staging_peak),
            "B");
  AddMetric(p, "hub.producer_stalls", static_cast<double>(m.producer_stalls),
            "count");
  AddMetric(p, "transport.queue_syncs_per_round",
            Ratio(static_cast<double>(lt.Count(SpanKind::kQueueSync)), rounds),
            "count");
  AddMetric(p, "transport.queue_sync_us",
            Ratio(lt.TotalUs(SpanKind::kQueueSync),
                  static_cast<double>(lt.Count(SpanKind::kQueueSync))),
            "us");
  AddMetric(p, "transport.queue_bytes_per_txn",
            Ratio(static_cast<double>(lt.Bytes(SpanKind::kQueueAppend)), txns),
            "B");
  AddMetric(p, "pipeline.state_syncs_per_round",
            Ratio(static_cast<double>(lt.Count(SpanKind::kStateRename)),
                  rounds),
            "count");
  AddMetric(p, "sql.stmt_cache_hit_ratio",
            Ratio(static_cast<double>(m.cache_hits),
                  static_cast<double>(m.cache_hits + m.cache_misses)),
            "ratio");
  AddMetric(p, "sql.parse_us_per_stmt", parse_us, "us");
  AddMetric(p, "sql.cache_parse_us_per_stmt", cached_us, "us");
  AddMetric(p, "txn.wal_bytes_per_row",
            Ratio(static_cast<double>(m.wh_wal_bytes),
                  static_cast<double>(m.rows_applied)),
            "B");
  AddMetric(p, "txn.wal_append_us_per_round",
            Ratio(in_round_us({SpanKind::kWalAppend, SpanKind::kWalSync}),
                  rounds),
            "us");
  AddMetric(p, "engine.olap_lock_wait_ms", m.olap_lock_ms.Mean(), "ms");
  AddMetric(p, "engine.olap_scan_ms", m.olap_scan_ms.Mean(), "ms");
  AddMetric(p, "backfill.chunk_round_ms", m.backfill_round_ms.Mean(), "ms");
  AddMetric(p, "backfill.src_page_fetches_per_chunk",
            Ratio(static_cast<double>(m.backfill_src_fetches),
                  static_cast<double>(m.backfill_chunks)),
            "count");
  AddMetric(p, "scrub.chunk_round_ms", m.scrub_round_ms.Mean(), "ms");
  AddMetric(p, "scrub.src_page_fetches_per_chunk",
            Ratio(static_cast<double>(m.scrub_src_fetches),
                  static_cast<double>(m.scrub_chunks)),
            "count");
  AddMetric(p, "scrub.inconclusive_share",
            Ratio(static_cast<double>(m.inconclusive),
                  static_cast<double>(m.scrub_chunks)),
            "ratio");
  // Self time per layer: span time not covered by child spans.
  for (const char* layer :
       {"extract", "hub", "txn", "transport", "pipeline", "storage"}) {
    AddMetric(p, std::string(layer) + ".self_us_per_txn",
              Ratio(lt.SelfUs(layer), txns), "us");
  }
  AddMetric(p, "engine.self_ms_per_query",
            Ratio(lt.SelfUs("engine") / 1e3,
                  static_cast<double>(lt.Count(SpanKind::kOlapScan))),
            "ms");
}

void Report(const Measure& m, const Ops& ops, RunResult* r) {
  for (const OpCount* op : {&ops.source_txns, &ops.rounds, &ops.olap_queries,
                            &ops.backfill_chunks, &ops.scrub_chunks}) {
    r->ops.push_back(*op);
  }
  std::vector<std::string>& out = r->report;
  out.push_back(DescribeSamples("source txn", m.source_txn_us, "us"));
  out.push_back(DescribeSamples("freshness", m.freshness_ms, "ms"));
  out.push_back(DescribeSamples("olap query", m.olap_ms, "ms"));
  out.push_back(DescribeSamples("round", m.round_ms, "ms"));
  out.push_back(DescribeSamples("setup", m.setup_s, "s"));
  out.push_back(DescribeSamples("backfill round", m.backfill_round_ms, "ms"));
  out.push_back(DescribeSamples("scrub round", m.scrub_round_ms, "ms"));
  for (const auto& [name, seconds] : m.phases) {
    out.push_back("phase " + name + ": " + Fmt("%.3f", seconds) + " s");
  }
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error) {
  Tracer tracer;
  Tracer* active = config.trace ? &tracer : nullptr;
  Measure m;
  Ops ops;
  try {
    if (config.workload == "oltp_keyed") {
      RunOltpKeyed(config, active, &ops, &m, result);
    } else if (config.workload == "bulk_window") {
      RunBulkWindow(config, active, &ops, &m, result);
    } else if (config.workload == "fleet_bootstrap") {
      RunFleetBootstrap(config, active, &ops, &m, result);
    } else {
      *error = "unknown workload " + config.workload;
      return false;
    }
  } catch (const HarnessError& e) {
    SetActiveTracer(nullptr);
    *error = e.what();
    return false;
  }
  EndToEnd(m, result);
  if (config.trace) PerLayer(m, result);
  Report(m, ops, result);
  result->correct = result->failures.empty();
  return true;
}

}  // namespace perfbench
