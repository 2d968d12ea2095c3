#ifndef OPDELTA_BACKFILL_CHUNK_WINDOW_H_
#define OPDELTA_BACKFILL_CHUNK_WINDOW_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "extract/delta.h"
#include "pipeline/source_leg.h"
#include "sql/statement_cache.h"

namespace opdelta::backfill {

/// One selected committed row of a watermark-bracketed chunk.
struct WindowRow {
  int64_t key = 0;
  catalog::Row image;
  bool present = false;       // has a committed image
  bool needs_repair = false;  // in-window delta touched it; re-read by key
  bool deduped = false;       // already counted toward rows_deduped
};

/// The DBLog watermark-bracketed chunk primitive, shared by the online
/// backfiller (bootstrap) and the anti-entropy scrubber (verify/repair):
/// committed range read → high watermark → drain the leg until the window
/// closes. Everything the drain ships reaches the warehouse before
/// anything derived from the chunk, which is what makes the chunk safe to
/// ship (backfill) or compare (scrub) against live traffic.
///
/// Only the high watermark is written. Every close treats each drained
/// event on the table as in-window, so a low marker would never be read.
/// For op-delta sources the high watermark is a signal row inserted
/// through the capture wrapper: its position in the op log orders it
/// after everything committed before the close, and the window closes when
/// a drained batch carries it. Value-delta sources write no signal row at
/// all: extraction picks up everything committed before the close, so the
/// window closes when a drain runs dry.
///
/// Two close modes:
///  - kRepair (backfill semantics): chunk rows touched by in-window events
///    are re-read committed-by-key after the window closes, so the shipped
///    chunk always carries the post-delta image ("the delta wins"). With a
///    collect range, in-window events on keys inside the range but absent
///    from the chunk are appended as rows and resolved the same way — the
///    scrubber needs this so a key inserted mid-repair is never on its
///    delete list.
///  - kDetect (scrub verify semantics): no repair reads. The outcome just
///    reports whether *any* drained event touched the table. Conservative
///    by design: a touched window makes the chunk inconclusive-and-retried,
///    never a false positive.
///
/// Threading: all calls must be serialized with the leg's producer side.
class ChunkWindow {
 public:
  /// Source table of the op-delta high watermarks; the warehouse needs it
  /// too (EnsureSignalTable), since the captured inserts replay there.
  static constexpr char kSignalTable[] = "__backfill_signal";

  enum class CloseMode { kRepair, kDetect };

  struct CloseOutcome {
    bool touched = false;        // any in-window event touched the chunk
    uint64_t rows_deduped = 0;   // rows whose repair read replaced the image
  };

  /// OK when `leg`'s source table exists (NotFound) and has an INT64 key
  /// column, first by convention (NotSupported otherwise).
  static Status CheckTable(pipeline::SourceLeg* leg);

  /// `leg` must outlive the window and pass CheckTable.
  explicit ChunkWindow(pipeline::SourceLeg* leg);

  /// Creates the signal table in `db` if missing. Idempotent.
  static Status EnsureSignalTable(engine::Database* db);

  /// Creates the source's signal table when the leg captures op-deltas.
  /// Idempotent.
  Status Setup();

  /// Key predicate of the range (lo, hi]; an unset bound is open.
  engine::Predicate KeyRange(std::optional<int64_t> lo,
                             std::optional<int64_t> hi) const;

  /// Re-resolves the table's schema — DDL between windows changes row
  /// arity — then selects the committed rows in (lo, hi], smallest first,
  /// at most `limit` (0 = unlimited): a latch-only candidate pass, then
  /// per-row committed reads under row S locks in one transaction, aborted
  /// on any error. `*more` reports a truncated selection. Rows that vanish
  /// between the passes come back as needs_repair and are resolved by
  /// Close.
  Status ReadRange(std::optional<int64_t> lo, std::optional<int64_t> hi,
                   uint64_t limit, std::vector<WindowRow>* rows, bool* more);

  /// Writes the high watermark (op-delta) and drains the leg until the
  /// window closes. With `collect` set (kRepair only), in-window events on
  /// keys inside (collect_lo, collect_hi] that are absent from `rows` are
  /// appended as needs_repair rows and resolved with the rest.
  Status Close(CloseMode mode, bool collect,
               std::optional<int64_t> collect_lo,
               std::optional<int64_t> collect_hi,
               std::vector<WindowRow>* rows, CloseOutcome* outcome);

  /// The present rows as a batch of upserts, under the schema they were
  /// read with. Moves the row images out.
  extract::DeltaBatch UpsertBatch(std::vector<WindowRow>* rows) const;

  /// Deletes this table's signal rows (captured, so replay cleans the
  /// warehouse copy too). No-op for value-delta sources.
  Status CleanupSignals();

  int key_col() const { return key_col_; }

 private:
  /// Process-wide strictly increasing id, so a stale watermark still in an
  /// op log — from a crashed window, another window on the table or an
  /// earlier process — never closes this window early.
  static uint64_t NextWindowId();
  Status WriteHighSignal(uint64_t id);
  /// Inspects one shipped message: marks touched rows / collects range
  /// keys (kRepair) or detects any table touch (kDetect); reports whether
  /// window `id`'s high signal was observed.
  Status InspectShipped(const std::string& message, uint64_t id,
                        CloseMode mode, bool collect,
                        std::optional<int64_t> collect_lo,
                        std::optional<int64_t> collect_hi,
                        std::vector<WindowRow>* rows, bool* saw_high,
                        bool* touched);
  /// Committed state of `key` right now; *found=false when no committed
  /// row carries it. Locks stay with `txn`.
  Status ReadCommittedByKey(txn::Transaction* txn, int64_t key,
                            catalog::Row* row, bool* found);
  /// Re-reads every needs_repair row committed-by-key; absent rows drop.
  Status RepairRows(std::vector<WindowRow>* rows, CloseOutcome* outcome);

  bool KeyInRange(int64_t key, std::optional<int64_t> lo,
                  std::optional<int64_t> hi) const {
    return (!lo.has_value() || key > *lo) && (!hi.has_value() || key <= *hi);
  }

  pipeline::SourceLeg* leg_;
  engine::Database* source_;
  std::string table_;
  catalog::Schema schema_;
  int key_col_ = 0;
  // Drained op-delta statements repeat a few shapes; cache the parse.
  sql::StatementCache stmt_cache_;
};

}  // namespace opdelta::backfill

#endif  // OPDELTA_BACKFILL_CHUNK_WINDOW_H_
