#include "warehouse/apply_scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/sync.h"
#include "engine/predicate.h"
#include "engine/table.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace opdelta::warehouse {

using catalog::Value;
using extract::OpDeltaRecord;
using extract::OpDeltaTxn;
using sql::Statement;
using sql::StatementType;

namespace {

/// Key-literal encoding must agree with the executor's literal coercion
/// (sql/executor.cc CoerceValue), or "7" inserted into a timestamp column
/// and "TS:7" deleting it would claim different keys. False = the executor
/// would reject the coercion; the caller widens to a whole-table claim and
/// lets the (now serialized) statement fail with the executor's own error.
bool EncodeKey(catalog::ValueType want, Value v, std::string* out) {
  if (!v.is_null() && v.type() != want) {
    if (v.type() == catalog::ValueType::kInt64 &&
        want == catalog::ValueType::kTimestamp) {
      v = Value::Timestamp(v.AsInt64());
    } else if (v.type() == catalog::ValueType::kInt64 &&
               want == catalog::ValueType::kDouble) {
      v = Value::Double(static_cast<double>(v.AsInt64()));
    } else if (v.type() == catalog::ValueType::kTimestamp &&
               want == catalog::ValueType::kInt64) {
      v = Value::Int64(v.AsTimestamp());
    } else {
      return false;
    }
  }
  *out = v.ToSqlLiteral();
  return true;
}

void ClaimWholeTable(TableFootprint* tf) {
  tf->whole_table = true;
  tf->keys.clear();
}

/// The key-equality conjunct of a WHERE clause, if any. Any additional
/// conjuncts only narrow the matched set further, so the key claim stays
/// sound.
const engine::Condition* FindKeyEquality(const engine::Predicate& where,
                                         const std::string& key_name) {
  for (const engine::Condition& c : where.conjuncts()) {
    if (c.op == engine::CompareOp::kEq && c.column == key_name) return &c;
  }
  return nullptr;
}

}  // namespace

bool StatementFootprint(engine::Database* db, const Statement& stmt,
                        TxnFootprint* footprint) {
  if (!stmt.is_insert() && !stmt.is_update() && !stmt.is_delete()) {
    return false;  // DDL/SELECT never runs on this path; fall back
  }
  engine::Table* table = db->GetTable(stmt.table());
  if (table == nullptr) {
    // Unknown table: the statement will fail; the serial path owns the
    // error so its message and committed prefix match serial apply.
    return false;
  }
  if (!table->triggers().empty()) {
    // Trigger bodies write rows the statement text does not mention.
    return false;
  }
  const catalog::Schema& schema = table->schema();
  TableFootprint& tf = (*footprint)[stmt.table()];
  if (tf.whole_table) return true;
  const int key_col = schema.KeyColumnIndex();
  if (key_col < 0) {
    ClaimWholeTable(&tf);
    return true;
  }
  const catalog::ValueType key_type = schema.column(key_col).type;
  const std::string& key_name = schema.column(key_col).name;

  auto claim_key = [&](const Value& v) {
    std::string encoded;
    if (EncodeKey(key_type, v, &encoded)) {
      tf.keys.push_back(std::move(encoded));
    } else {
      ClaimWholeTable(&tf);
    }
  };

  switch (stmt.type()) {
    case StatementType::kInsert:
      for (const catalog::Row& row : stmt.insert().rows) {
        if (static_cast<int>(row.size()) <= key_col) {
          ClaimWholeTable(&tf);  // malformed row; serialize, let it fail
          return true;
        }
        claim_key(row[key_col]);
        if (tf.whole_table) return true;
      }
      return true;
    case StatementType::kUpdate: {
      const engine::Condition* eq =
          FindKeyEquality(stmt.update().where, key_name);
      if (eq == nullptr) {
        ClaimWholeTable(&tf);
        return true;
      }
      claim_key(eq->literal);
      // A SET on the key column gives the row a new identity; claim the
      // new key too so a later statement on it orders after this one.
      for (const engine::Assignment& a : stmt.update().sets) {
        if (tf.whole_table) return true;
        if (a.column == key_name) claim_key(a.value);
      }
      return true;
    }
    case StatementType::kDelete: {
      const engine::Condition* eq =
          FindKeyEquality(stmt.delete_stmt().where, key_name);
      if (eq == nullptr) {
        ClaimWholeTable(&tf);
        return true;
      }
      claim_key(eq->literal);
      return true;
    }
    default:
      return false;
  }
}

std::vector<int64_t> ComputeConflictBarriers(
    const std::vector<TxnFootprint>& footprints) {
  struct TableState {
    int64_t last_whole = -1;                 // newest whole-table writer
    std::map<std::string, int64_t> by_key;   // newest writer per key
  };
  std::map<std::string, TableState> state;
  std::vector<int64_t> barriers(footprints.size(), -1);
  for (size_t i = 0; i < footprints.size(); ++i) {
    // Pass 1: barrier against *earlier* transactions only. A transaction
    // never conflicts with itself, so its own claims must not enter the
    // state until the barrier is computed (a repeated key within one
    // transaction would otherwise yield barrier == i, never dispatchable).
    int64_t barrier = -1;
    for (const auto& [table, tf] : footprints[i]) {
      auto it = state.find(table);
      if (it == state.end()) continue;
      const TableState& ts = it->second;
      barrier = std::max(barrier, ts.last_whole);
      if (tf.whole_table) {
        for (const auto& [key, writer] : ts.by_key) {
          barrier = std::max(barrier, writer);
        }
      } else {
        for (const std::string& key : tf.keys) {
          auto kit = ts.by_key.find(key);
          if (kit != ts.by_key.end()) barrier = std::max(barrier, kit->second);
        }
      }
    }
    barriers[i] = barrier;
    // Pass 2: record this transaction's claims.
    for (const auto& [table, tf] : footprints[i]) {
      TableState& ts = state[table];
      if (tf.whole_table) {
        ts.last_whole = static_cast<int64_t>(i);
        ts.by_key.clear();  // dominated by last_whole
      } else {
        for (const std::string& key : tf.keys) {
          ts.by_key[key] = static_cast<int64_t>(i);
        }
      }
    }
  }
  return barriers;
}

struct ParallelApplyScheduler::TxnPlan {
  std::vector<Statement> stmts;  // parsed once, executed by the worker
  TxnFootprint footprint;
  int64_t barrier = -1;
};

/// Shared state of one Apply call. Lives on Apply's stack: Apply only
/// returns after every dispatched task has run its completion section, so
/// no task can outlive the Run it points into.
struct ParallelApplyScheduler::Run {
  engine::Database* db = nullptr;
  ApplyLedger* ledger = nullptr;
  const extract::BatchId* id = nullptr;
  uint64_t skip = 0;  // plan index -> batch txns_after = skip + index + 1
  std::vector<TxnPlan>* plans = nullptr;
  size_t max_inflight = 1;

  // The scheduler mutex is never held across an engine call: workers
  // execute, advance the ledger, and commit with it released.
  common::OrderedMutex mutex{OPDELTA_LOCK_RANK(
      apply_scheduler, common::lockrank::kApplyScheduler)};
  std::condition_variable_any cv;  // _any: waits on an OrderedMutex
  size_t next_dispatch = 0;  // plans [0, next_dispatch) are submitted
  size_t next_commit = 0;    // plans [0, next_commit) have finished
  size_t inflight = 0;
  bool failed = false;
  size_t first_failure = 0;  // meaningful only when failed
  Status failure;            // status of plans[first_failure]
  IntegrationStats committed;  // merged from committed workers only

  ThreadPool* pool = nullptr;

  /// Keeps only the earliest failure: the committed prefix ends there, so
  /// its error is the one serial apply would have returned.
  void MarkFailureLocked(size_t index, Status status) {
    if (!failed || index < first_failure) {
      failed = true;
      first_failure = index;
      failure = std::move(status);
    }
  }
};

void ParallelApplyScheduler::DispatchLocked(Run* run) {
  // Strictly ascending: plan j is never submitted before plan j-1. With
  // the pool's FIFO start order this means the commit-cursor owner is
  // always already running (or done) — a ticket wait can never point at a
  // task parked behind the waiter in the pool queue, even when several
  // batches share the pool. After a failure nothing new starts; the
  // in-flight suffix drains through its tickets and aborts.
  while (!run->failed && run->next_dispatch < run->plans->size() &&
         run->inflight < run->max_inflight &&
         (*run->plans)[run->next_dispatch].barrier <
             static_cast<int64_t>(run->next_commit)) {
    const size_t index = run->next_dispatch;
    ++run->next_dispatch;
    ++run->inflight;
    run->pool->Submit([run, index] { ExecuteOne(run, index); });
  }
}

void ParallelApplyScheduler::ExecuteOne(Run* run, size_t index) {
  TxnPlan& plan = (*run->plans)[index];
  IntegrationStats local;
  sql::Executor executor(run->db);

  // Phase 1 — execute eagerly, concurrently with other workers. Footprint
  // disjointness guarantees no row-lock conflict with any other in-flight
  // worker, so holding row locks across the ticket wait below cannot block
  // anyone who still has work to do.
  bool already_doomed;
  {
    std::lock_guard<common::OrderedMutex> lock(run->mutex);
    already_doomed = run->failed && run->first_failure < index;
  }
  std::unique_ptr<txn::Transaction> txn;
  Status st;
  if (!already_doomed) {
    txn = run->db->Begin();
    for (const Statement& stmt : plan.stmts) {
      Result<size_t> r = executor.Execute(txn.get(), stmt);
      st = r.status();
      if (!st.ok()) break;
      local.statements_executed++;
      local.rows_affected += r.value();
    }
    if (!st.ok()) {
      // Release locks immediately; the failure is recorded at the ticket.
      (void)run->db->Abort(txn.get());
      txn.reset();
    }
  }

  // Phase 2 — the commit ticket. Ledger advances commit in source-serial
  // order, so the watermark always covers a contiguous prefix: duplicate
  // drop and crash-resume are byte-for-byte the serial integrator's.
  bool earlier_failed;
  {
    std::unique_lock<common::OrderedMutex> lock(run->mutex);
    run->cv.wait(lock, [run, index] { return run->next_commit == index; });
    earlier_failed = run->failed && run->first_failure < index;
  }

  bool committed = false;
  if (txn != nullptr) {
    if (earlier_failed) {
      // The batch's outcome is already decided before us; committing past
      // the first failure would break the contiguous-prefix contract.
      (void)run->db->Abort(txn.get());
    } else if (st.ok()) {
      if (run->ledger != nullptr) {
        st = run->ledger->Advance(txn.get(), *run->id,
                                  run->skip + index + 1);
      }
      if (st.ok()) {
        Status commit = run->db->Commit(txn.get());
        if (commit.ok()) {
          committed = true;
        } else {
          (void)run->db->Abort(txn.get());  // unlock the ghost
          st = commit;
        }
      } else {
        (void)run->db->Abort(txn.get());
      }
    }
  }

  {
    std::lock_guard<common::OrderedMutex> lock(run->mutex);
    if (committed) {
      local.transactions = 1;
      run->committed.statements_executed += local.statements_executed;
      run->committed.rows_affected += local.rows_affected;
      run->committed.transactions += local.transactions;
    } else if (!earlier_failed && !st.ok()) {
      run->MarkFailureLocked(index, std::move(st));
    }
    run->next_commit = index + 1;
    --run->inflight;
    DispatchLocked(run);
    // Notify under the lock (the CountDownLatch idiom): Run lives on
    // Apply's stack, and a wait that returned between an unlocked state
    // update and its notify could destroy the cv under us.
    run->cv.notify_all();
  }
}

bool ParallelApplyScheduler::PlanBatch(const std::vector<OpDeltaTxn>& txns,
                                       uint64_t skip,
                                       std::vector<TxnPlan>* plans) {
  const uint64_t epoch = db_->ddl_epoch();
  plans->reserve(txns.size() - skip);
  for (size_t i = skip; i < txns.size(); ++i) {
    TxnPlan plan;
    plan.stmts.reserve(txns[i].ops.size());
    for (const OpDeltaRecord& op : txns[i].ops) {
      if (op.is_schema_event()) return false;  // DDL migrates serially
      Result<Statement> parsed = options_.cache != nullptr
                                     ? options_.cache->Parse(op.sql, epoch)
                                     : sql::Parser::Parse(op.sql);
      if (!parsed.ok()) return false;  // serial path owns the parse error
      if (!StatementFootprint(db_, parsed.value(), &plan.footprint)) {
        return false;
      }
      plan.stmts.push_back(std::move(parsed.value()));
    }
    plans->push_back(std::move(plan));
  }
  return true;
}

Status ParallelApplyScheduler::Apply(const std::vector<OpDeltaTxn>& txns,
                                     const extract::BatchId& id,
                                     ApplyLedger* ledger,
                                     IntegrationStats* stats) {
  auto serial = [&]() {
    OpDeltaIntegrator integrator(db_, options_.cache);
    return integrator.Apply(txns, id, ledger, stats);
  };
  if (options_.pool == nullptr || options_.max_inflight <= 1 ||
      txns.size() < 2) {
    return serial();
  }

  IntegrationStats local;
  Stopwatch wall;
  uint64_t skip = 0;
  if (ledger != nullptr) {
    OPDELTA_ASSIGN_OR_RETURN(ApplyLedger::Admission admission,
                             ledger->Admit(id, txns.size()));
    if (admission.decision == ApplyLedger::Decision::kDuplicate) {
      local.duplicate_batches = 1;
      local.wall_micros = wall.ElapsedMicros();
      if (stats != nullptr) *stats = local;
      return Status::OK();
    }
    if (admission.decision == ApplyLedger::Decision::kResume) {
      skip = admission.skip_txns;
      local.duplicate_txns = skip;
    }
  }
  if (txns.size() - skip < 2) {
    // Admit is a read-only decision — re-admitting from the serial
    // integrator reaches the same verdict, so wholesale delegation is
    // safe at any point before the first Advance.
    return serial();
  }

  std::vector<TxnPlan> plans;
  if (!PlanBatch(txns, skip, &plans)) return serial();
  {
    std::vector<TxnFootprint> footprints;
    footprints.reserve(plans.size());
    for (const TxnPlan& p : plans) footprints.push_back(p.footprint);
    const std::vector<int64_t> barriers = ComputeConflictBarriers(footprints);
    for (size_t i = 0; i < plans.size(); ++i) plans[i].barrier = barriers[i];
  }

  Run run;
  run.db = db_;
  run.ledger = ledger;
  run.id = &id;
  run.skip = skip;
  run.plans = &plans;
  run.max_inflight = options_.max_inflight;
  run.pool = options_.pool;
  {
    std::unique_lock<common::OrderedMutex> lock(run.mutex);
    DispatchLocked(&run);
    run.cv.wait(lock, [&run, &plans] {
      return run.inflight == 0 &&
             (run.failed || run.next_dispatch == plans.size());
    });
  }
  if (run.failed) return run.failure;

  local.statements_executed = run.committed.statements_executed;
  local.rows_affected = run.committed.rows_affected;
  local.transactions = run.committed.transactions;
  local.txns_parallel = run.committed.transactions;
  local.wall_micros = wall.ElapsedMicros();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace opdelta::warehouse
