#ifndef OPDELTA_WAREHOUSE_APPLY_LEDGER_H_
#define OPDELTA_WAREHOUSE_APPLY_LEDGER_H_

#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "extract/delta.h"

namespace opdelta::warehouse {

/// Durable record of which delta batches the warehouse has applied, stored
/// *in the warehouse itself* so progress commits atomically with the delta
/// statements it describes. This is what turns the transport's
/// at-least-once delivery (Peek -> apply -> Ack) into exactly-once apply:
/// a crash between apply and Ack redelivers the batch, and the ledger
/// recognizes and drops it.
///
/// Layout: an append-only table, `__apply_ledger`, of rows
///   (source TEXT, kind TEXT, epoch INT, seq INT, txns INT)
/// with two row kinds:
///   'W' — watermark: batch (epoch, seq) applied through its first `txns`
///         source transactions. The effective watermark of a source is the
///         row with the largest (epoch, seq, txns); integrators append one
///         'W' row per warehouse transaction *inside that transaction*, so
///         a rolled-back apply also rolls back its progress record.
///   'H' — hole: batch (epoch, seq) was skipped past (dead-lettered) after
///         `txns` transactions. Holes let an operator replay land below the
///         watermark without being mistaken for a duplicate; applying the
///         batch clears its holes in the same transaction.
///
/// Appending (never updating in place) keeps every writer a plain row
/// insert under the table's IX lock, so concurrent apply workers for
/// different sources never conflict, and crash recovery needs no special
/// casing: an aborted transaction's row simply never becomes visible.
/// Compact() prunes superseded watermark rows in its own transaction; a
/// crash during compaction leaves only extra rows, never lost progress.
///
/// Thread safety: callers for the *same* source must be externally
/// serialized (the hub's per-table worker lanes guarantee this); distinct
/// sources may Admit/Advance concurrently.
class ApplyLedger {
 public:
  static constexpr char kTable[] = "__apply_ledger";

  explicit ApplyLedger(engine::Database* warehouse) : db_(warehouse) {}

  /// The ledger table's schema (source is the key column by convention).
  static catalog::Schema TableSchema();

  /// Creates the ledger table if missing. Idempotent.
  Status Setup();

  /// Effective applied watermark of a source; exists=false when the source
  /// has never applied a batch.
  struct Watermark {
    bool exists = false;
    uint64_t epoch = 0;
    uint64_t seq = 0;
    uint64_t txns = 0;  // applied source-txn prefix of batch (epoch, seq)
  };
  Result<Watermark> Get(const std::string& source_id);

  /// Admission decision for a (re)delivered batch.
  enum class Decision {
    kFresh,      // never seen: apply from the start
    kResume,     // partially applied: skip the first `skip_txns`
    kDuplicate,  // fully applied (or superseded): drop, do not apply
  };
  struct Admission {
    Decision decision = Decision::kFresh;
    uint64_t skip_txns = 0;  // kResume: already-applied prefix to skip
  };

  /// Decides what to do with batch `id` carrying `total_txns` source
  /// transactions (value-delta batches count as 1). Admit, Advance and
  /// RecordSkip refuse an invalid id with kInvalidArgument: every batch the
  /// ledger sees carries a stamped identity.
  Result<Admission> Admit(const extract::BatchId& id, uint64_t total_txns);

  /// Records inside the caller's open warehouse transaction that batch
  /// `id` is applied through its first `txns_applied` source transactions.
  /// Also clears any hole rows for `id` (an operator replay completing).
  Status Advance(txn::Transaction* txn, const extract::BatchId& id,
                 uint64_t txns_applied);

  /// Records that batch `id` was skipped past without (fully) applying —
  /// the dead-letter path. Runs in its own transaction. The hole carries
  /// the currently-applied prefix so a later replay resumes, not repeats.
  Status RecordSkip(const extract::BatchId& id);

  /// Deletes watermark rows superseded by a newer row of their source.
  /// Runs in its own transaction; holes are never compacted away.
  Status Compact(uint64_t* rows_removed = nullptr);


 private:
  /// Largest hole row for (source, epoch, seq), or exists=false.
  Result<Watermark> FindHole(const extract::BatchId& id);

  engine::Database* db_;
};

}  // namespace opdelta::warehouse

#endif  // OPDELTA_WAREHOUSE_APPLY_LEDGER_H_
