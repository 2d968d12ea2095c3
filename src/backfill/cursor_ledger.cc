#include "backfill/cursor_ledger.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace opdelta::backfill {

using catalog::Column;
using catalog::Value;
using catalog::ValueType;

namespace {

constexpr char kCursorKind[] = "C";
constexpr char kPassKind[] = "P";

// Column order of TableSchema().
enum LedgerCol {
  kTbl = 0,
  kJob = 1,
  kKind = 2,
  kPass = 3,
  kChunks = 4,
  kCursor = 5,
  kRows = 6,
};

/// Recency order of a walk's rows: (pass, chunks), a pass row last.
struct Recency {
  uint64_t pass = 0;
  uint64_t chunks = 0;
  bool finished = false;

  static Recency Of(const catalog::Row& row) {
    return Recency{static_cast<uint64_t>(row[kPass].AsInt64()),
                   static_cast<uint64_t>(row[kChunks].AsInt64()),
                   row[kKind].AsString() == kPassKind};
  }
  bool operator<(const Recency& o) const {
    if (pass != o.pass) return pass < o.pass;
    if (chunks != o.chunks) return chunks < o.chunks;
    return !finished && o.finished;
  }
};

catalog::Schema TableSchema() {
  return catalog::Schema({Column{"tbl", ValueType::kString},
                          Column{"job", ValueType::kString},
                          Column{"kind", ValueType::kString},
                          Column{"pass", ValueType::kInt64},
                          Column{"chunks", ValueType::kInt64},
                          Column{"cursor", ValueType::kInt64},
                          Column{"rows", ValueType::kInt64}});
}

}  // namespace

constexpr char CursorLedger::kTable[];
constexpr uint64_t CursorLedger::kCompactEvery;

engine::Predicate CursorLedger::WalkRows() const {
  engine::Predicate pred = engine::Predicate::Where(
      "tbl", engine::CompareOp::kEq, Value::String(table_));
  pred.And("job", engine::CompareOp::kEq, Value::String(job_));
  return pred;
}

Status CursorLedger::Setup() {
  if (db_->GetTable(kTable) == nullptr) {
    Status st = db_->CreateTable(kTable, TableSchema());
    if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  }
  bool any = false;
  Recency newest;
  catalog::Row newest_row;
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, kTable, WalkRows(),
      [&](const storage::Rid&, const catalog::Row& row) {
        const Recency r = Recency::Of(row);
        if (!any || newest < r) {
          any = true;
          newest = r;
          newest_row = row;
        }
        return true;
      }));
  pass_ = any ? newest.pass : 0;
  pass_finished_ = any && newest.finished;
  chunks_ = any ? newest.chunks : 0;
  cursor_ = any ? newest_row[kCursor].AsInt64() : 0;
  rows_ = any ? static_cast<uint64_t>(newest_row[kRows].AsInt64()) : 0;
  return Status::OK();
}

uint64_t CursorLedger::passes_done() const {
  if (pass_ == 0) return 0;
  return pass_finished_ ? pass_ : pass_ - 1;
}

std::optional<int64_t> CursorLedger::cursor() const {
  return mid_pass() ? std::optional<int64_t>(cursor_) : std::nullopt;
}

Status CursorLedger::Append(bool finishes_pass, int64_t cursor,
                            uint64_t rows) {
  // The chunk continues the pass under way or starts the next one.
  const bool continues = mid_pass();
  const uint64_t pass = continues ? pass_ : passes_done() + 1;
  const uint64_t chunks = (continues ? chunks_ : 0) + 1;
  if (continues) rows += rows_;
  OPDELTA_RETURN_IF_ERROR(db_->WithTransaction([&](txn::Transaction* txn) {
    catalog::Row row(7);
    row[kTbl] = Value::String(table_);
    row[kJob] = Value::String(job_);
    row[kKind] = Value::String(finishes_pass ? kPassKind : kCursorKind);
    row[kPass] = Value::Int64(static_cast<int64_t>(pass));
    row[kChunks] = Value::Int64(static_cast<int64_t>(chunks));
    row[kCursor] = Value::Int64(cursor);
    row[kRows] = Value::Int64(static_cast<int64_t>(rows));
    return db_->InsertRaw(txn, kTable, std::move(row));
  }));
  pass_ = pass;
  pass_finished_ = finishes_pass;
  chunks_ = chunks;
  cursor_ = cursor;
  rows_ = rows;
  if (++appends_ % kCompactEvery == 0) {
    // Housekeeping only: superseded rows never change the walk's state.
    Status st = Compact();
    if (!st.ok()) {
      OPDELTA_LOG(kWarn) << "cursor-ledger compaction failed: "
                         << st.ToString();
    }
  }
  return Status::OK();
}

Status CursorLedger::Advance(int64_t last_key, uint64_t rows) {
  return Append(/*finishes_pass=*/false, last_key, rows);
}

Status CursorLedger::FinishPass(uint64_t rows) {
  return Append(/*finishes_pass=*/true, 0, rows);
}

Status CursorLedger::Reset() {
  OPDELTA_RETURN_IF_ERROR(db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->DeleteWhere(txn, kTable, WalkRows()).status();
  }));
  pass_ = 0;
  pass_finished_ = false;
  chunks_ = 0;
  cursor_ = 0;
  rows_ = 0;
  return Status::OK();
}

Status CursorLedger::Compact(uint64_t* rows_removed) {
  if (rows_removed != nullptr) *rows_removed = 0;
  uint64_t removed = 0;
  Status st = db_->WithTransaction([&](txn::Transaction* txn) {
    std::vector<std::pair<storage::Rid, Recency>> rows;
    size_t newest = 0;
    OPDELTA_RETURN_IF_ERROR(db_->Scan(
        txn, kTable, WalkRows(),
        [&](const storage::Rid& rid, const catalog::Row& row) {
          rows.emplace_back(rid, Recency::Of(row));
          if (rows[newest].second < rows.back().second) {
            newest = rows.size() - 1;
          }
          return true;
        }));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i == newest) continue;
      OPDELTA_RETURN_IF_ERROR(db_->DeleteAt(txn, kTable, rows[i].first));
      ++removed;
    }
    return Status::OK();
  });
  if (st.ok() && rows_removed != nullptr) *rows_removed = removed;
  return st;
}

}  // namespace opdelta::backfill
