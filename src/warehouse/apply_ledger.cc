#include "warehouse/apply_ledger.h"

#include <map>
#include <utility>
#include <vector>

namespace opdelta::warehouse {

using catalog::Column;
using catalog::Value;
using catalog::ValueType;

namespace {

constexpr char kWatermarkKind[] = "W";
constexpr char kHoleKind[] = "H";

// Column order of TableSchema().
enum LedgerCol { kSource = 0, kKind = 1, kEpoch = 2, kSeq = 3, kTxns = 4 };

/// (epoch, seq) lexicographic order — the per-source batch order.
bool IdLess(uint64_t epoch_a, uint64_t seq_a, uint64_t epoch_b,
            uint64_t seq_b) {
  return epoch_a != epoch_b ? epoch_a < epoch_b : seq_a < seq_b;
}

catalog::Row LedgerRow(const extract::BatchId& id, const char* kind,
                       uint64_t txns) {
  catalog::Row row(5);
  row[kSource] = Value::String(id.source_id);
  row[kKind] = Value::String(kind);
  row[kEpoch] = Value::Int64(static_cast<int64_t>(id.epoch));
  row[kSeq] = Value::Int64(static_cast<int64_t>(id.seq));
  row[kTxns] = Value::Int64(static_cast<int64_t>(txns));
  return row;
}

Status CheckIdentity(const extract::BatchId& id) {
  if (id.valid()) return Status::OK();
  return Status::InvalidArgument(
      "apply ledger needs a stamped batch identity, got " + id.ToString());
}

}  // namespace

constexpr char ApplyLedger::kTable[];

catalog::Schema ApplyLedger::TableSchema() {
  return catalog::Schema({Column{"source", ValueType::kString},
                          Column{"kind", ValueType::kString},
                          Column{"epoch", ValueType::kInt64},
                          Column{"seq", ValueType::kInt64},
                          Column{"txns", ValueType::kInt64}});
}

Status ApplyLedger::Setup() {
  if (db_->GetTable(kTable) != nullptr) return Status::OK();
  Status st = db_->CreateTable(kTable, TableSchema());
  if (st.code() == StatusCode::kAlreadyExists) return Status::OK();
  return st;
}

Result<ApplyLedger::Watermark> ApplyLedger::Get(const std::string& source_id) {
  Watermark best;
  engine::Predicate pred = engine::Predicate::Where(
      "source", engine::CompareOp::kEq, Value::String(source_id));
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, kTable, pred,
      [&](const storage::Rid&, const catalog::Row& row) {
        if (row[kKind].AsString() != kWatermarkKind) return true;
        const uint64_t epoch = static_cast<uint64_t>(row[kEpoch].AsInt64());
        const uint64_t seq = static_cast<uint64_t>(row[kSeq].AsInt64());
        const uint64_t txns = static_cast<uint64_t>(row[kTxns].AsInt64());
        if (!best.exists || IdLess(best.epoch, best.seq, epoch, seq) ||
            (best.epoch == epoch && best.seq == seq && txns > best.txns)) {
          best = Watermark{true, epoch, seq, txns};
        }
        return true;
      }));
  return best;
}

Result<ApplyLedger::Watermark> ApplyLedger::FindHole(
    const extract::BatchId& id) {
  Watermark hole;
  engine::Predicate pred = engine::Predicate::Where(
      "source", engine::CompareOp::kEq, Value::String(id.source_id));
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      nullptr, kTable, pred,
      [&](const storage::Rid&, const catalog::Row& row) {
        if (row[kKind].AsString() != kHoleKind) return true;
        if (static_cast<uint64_t>(row[kEpoch].AsInt64()) != id.epoch ||
            static_cast<uint64_t>(row[kSeq].AsInt64()) != id.seq) {
          return true;
        }
        const uint64_t txns = static_cast<uint64_t>(row[kTxns].AsInt64());
        if (!hole.exists || txns > hole.txns) {
          hole = Watermark{true, id.epoch, id.seq, txns};
        }
        return true;
      }));
  return hole;
}

Result<ApplyLedger::Admission> ApplyLedger::Admit(const extract::BatchId& id,
                                                  uint64_t total_txns) {
  OPDELTA_RETURN_IF_ERROR(CheckIdentity(id));
  OPDELTA_ASSIGN_OR_RETURN(Watermark w, Get(id.source_id));
  if (!w.exists || IdLess(w.epoch, w.seq, id.epoch, id.seq)) {
    return Admission{Decision::kFresh, 0};
  }
  if (w.epoch == id.epoch && w.seq == id.seq) {
    // The watermark batch itself, redelivered: resume past the applied
    // prefix; a fully-applied batch (the apply-vs-Ack crash window) drops.
    if (w.txns >= total_txns) return Admission{Decision::kDuplicate, 0};
    return Admission{Decision::kResume, w.txns};
  }
  // Below the watermark: a duplicate, unless it was dead-lettered past —
  // then an operator replay legitimately lands here and must be admitted.
  OPDELTA_ASSIGN_OR_RETURN(Watermark hole, FindHole(id));
  if (!hole.exists) return Admission{Decision::kDuplicate, 0};
  if (hole.txns >= total_txns) return Admission{Decision::kDuplicate, 0};
  return Admission{Decision::kResume, hole.txns};
}

Status ApplyLedger::Advance(txn::Transaction* txn, const extract::BatchId& id,
                            uint64_t txns_applied) {
  OPDELTA_RETURN_IF_ERROR(CheckIdentity(id));
  // Clear hole rows for this id first: once the batch applies, it must
  // never be re-admitted below the watermark.
  std::vector<storage::Rid> holes;
  engine::Predicate pred = engine::Predicate::Where(
      "source", engine::CompareOp::kEq, Value::String(id.source_id));
  OPDELTA_RETURN_IF_ERROR(db_->Scan(
      txn, kTable, pred,
      [&](const storage::Rid& rid, const catalog::Row& row) {
        if (row[kKind].AsString() == kHoleKind &&
            static_cast<uint64_t>(row[kEpoch].AsInt64()) == id.epoch &&
            static_cast<uint64_t>(row[kSeq].AsInt64()) == id.seq) {
          holes.push_back(rid);
        }
        return true;
      }));
  for (const storage::Rid& rid : holes) {
    OPDELTA_RETURN_IF_ERROR(db_->DeleteAt(txn, kTable, rid));
  }
  return db_->InsertRaw(txn, kTable,
                        LedgerRow(id, kWatermarkKind, txns_applied));
}

Status ApplyLedger::RecordSkip(const extract::BatchId& id) {
  OPDELTA_RETURN_IF_ERROR(CheckIdentity(id));
  // Carry the already-applied prefix (if the watermark is this very batch)
  // into the hole so a replay resumes instead of repeating transactions.
  OPDELTA_ASSIGN_OR_RETURN(Watermark w, Get(id.source_id));
  const uint64_t applied =
      (w.exists && w.epoch == id.epoch && w.seq == id.seq) ? w.txns : 0;
  return db_->WithTransaction([&](txn::Transaction* txn) {
    return db_->InsertRaw(txn, kTable, LedgerRow(id, kHoleKind, applied));
  });
}

Status ApplyLedger::Compact(uint64_t* rows_removed) {
  if (rows_removed != nullptr) *rows_removed = 0;
  uint64_t removed = 0;
  Status st = db_->WithTransaction([&](txn::Transaction* txn) {
    // Pass 1: the surviving (max) watermark rid per source.
    struct Best {
      storage::Rid rid;
      uint64_t epoch = 0, seq = 0, txns = 0;
    };
    std::map<std::string, Best> keep;
    std::vector<std::pair<std::string, storage::Rid>> watermarks;
    OPDELTA_RETURN_IF_ERROR(db_->Scan(
        txn, kTable, engine::Predicate::True(),
        [&](const storage::Rid& rid, const catalog::Row& row) {
          if (row[kKind].AsString() != kWatermarkKind) return true;
          const std::string& source = row[kSource].AsString();
          const uint64_t epoch = static_cast<uint64_t>(row[kEpoch].AsInt64());
          const uint64_t seq = static_cast<uint64_t>(row[kSeq].AsInt64());
          const uint64_t txns = static_cast<uint64_t>(row[kTxns].AsInt64());
          watermarks.emplace_back(source, rid);
          auto it = keep.find(source);
          if (it == keep.end() ||
              IdLess(it->second.epoch, it->second.seq, epoch, seq) ||
              (it->second.epoch == epoch && it->second.seq == seq &&
               txns > it->second.txns)) {
            keep[source] = Best{rid, epoch, seq, txns};
          }
          return true;
        }));
    // Pass 2: delete everything that lost. A crash mid-way aborts the whole
    // deletion, leaving the ledger larger but never wrong.
    for (const auto& [source, rid] : watermarks) {
      if (keep[source].rid == rid) continue;
      OPDELTA_RETURN_IF_ERROR(db_->DeleteAt(txn, kTable, rid));
      ++removed;
    }
    return Status::OK();
  });
  if (st.ok() && rows_removed != nullptr) *rows_removed = removed;
  return st;
}

}  // namespace opdelta::warehouse
