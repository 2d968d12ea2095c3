#ifndef OPDELTA_BACKFILL_CURSOR_LEDGER_H_
#define OPDELTA_BACKFILL_CURSOR_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "engine/database.h"

namespace opdelta::backfill {

/// Durable cursor of one chunk walk over one table — a backfill or a
/// scrub — stored *in the source database* so it survives anything the
/// transport's work_dir does not. Every walk shares one append-only table,
/// `__chunk_cursors`, of rows
///   (tbl TEXT, job TEXT, kind TEXT, pass INT, chunks INT, cursor INT,
///    rows INT)
/// keyed by (tbl, job). A walk covers the key space in passes, chunk by
/// chunk, smallest key first:
///   'C' — cursor: `chunks` chunks of pass `pass` are done, `rows` rows in
///         all; the next chunk selects keys strictly above `cursor`.
///   'P' — pass: pass `pass` covered the whole key space in `chunks`
///         chunks. The next pass starts again from the smallest key.
/// The walk's state is its newest row, the largest (pass, chunks): a
/// cursor key may be negative, so recency is the chunk count, and a pass
/// row always counts its last chunk, which writes no cursor row. A
/// backfill is one pass (its 'P' row means done); a scrub runs passes
/// forever.
///
/// Appending (never updating in place) keeps every writer a plain insert,
/// and the worst a crash can do is lose the newest row — re-running one
/// chunk, which both jobs make idempotent. Every kCompactEvery appends the
/// walk deletes its superseded rows.
///
/// Threading: one CursorLedger per walk, used from one thread at a time.
class CursorLedger {
 public:
  static constexpr char kTable[] = "__chunk_cursors";

  CursorLedger(engine::Database* source, std::string table, std::string job)
      : db_(source), table_(std::move(table)), job_(std::move(job)) {}

  /// Creates the ledger table if missing and loads the walk's newest row.
  /// Idempotent.
  Status Setup();

  /// Passes finished so far.
  uint64_t passes_done() const;
  /// Exclusive lower key bound of the next chunk; nullopt when the next
  /// chunk starts a pass.
  std::optional<int64_t> cursor() const;
  /// Chunks and rows of the current pass so far — or of the pass just
  /// finished, until the next chunk starts another.
  uint64_t chunks() const { return chunks_; }
  uint64_t rows() const { return rows_; }

  /// Records a chunk of `rows` rows ending at key `last_key`; the pass goes
  /// on above it. One transaction.
  Status Advance(int64_t last_key, uint64_t rows);

  /// Records the pass's last chunk, of `rows` rows. One transaction.
  Status FinishPass(uint64_t rows);

  /// Deletes every row of this walk in one transaction: the walk starts
  /// over from pass 1.
  Status Reset();

  /// Deletes this walk's rows except the newest, in one transaction.
  Status Compact(uint64_t* rows_removed = nullptr);

  static constexpr uint64_t kCompactEvery = 32;

 private:
  /// True while a pass is under way (a cursor row is the newest).
  bool mid_pass() const { return pass_ != 0 && !pass_finished_; }
  /// Appends the row of the next chunk, of `rows` rows.
  Status Append(bool finishes_pass, int64_t cursor, uint64_t rows);
  engine::Predicate WalkRows() const;

  engine::Database* db_;
  std::string table_;  // the walked table
  std::string job_;

  // The newest row; pass_ == 0 before the first.
  uint64_t pass_ = 0;
  bool pass_finished_ = false;
  uint64_t chunks_ = 0;
  int64_t cursor_ = 0;
  uint64_t rows_ = 0;
  uint64_t appends_ = 0;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CURSOR_LEDGER_H_
