#include "backfill/backfiller.h"

#include <utility>

#include "common/logging.h"

namespace opdelta::backfill {

Backfiller::Backfiller(pipeline::SourceLeg* leg, uint64_t chunk_rows)
    : leg_(leg),
      source_(leg->source()),
      chunk_rows_(chunk_rows),
      table_(leg->options().source_table),
      window_(leg),
      ledger_(leg->source(), table_, "backfill") {}

Result<std::unique_ptr<Backfiller>> Backfiller::Create(
    pipeline::SourceLeg* leg, uint64_t chunk_rows) {
  if (leg == nullptr) return Status::InvalidArgument("source leg required");
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  OPDELTA_RETURN_IF_ERROR(ChunkWindow::CheckTable(leg));
  return std::unique_ptr<Backfiller>(new Backfiller(leg, chunk_rows));
}

void Backfiller::LoadStats(uint64_t count) {
  stats_.chunks_done = ledger_.chunks();
  stats_.rows_backfilled = ledger_.rows();
  stats_.done = ledger_.passes_done() != 0;
  // chunks_total is a progress estimate from the current row count; the
  // final chunk makes it exact.
  const uint64_t remaining =
      count > stats_.rows_backfilled ? count - stats_.rows_backfilled : 0;
  stats_.chunks_total =
      stats_.done ? stats_.chunks_done
                  : stats_.chunks_done +
                        (remaining + chunk_rows_ - 1) / chunk_rows_;
}

Status Backfiller::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(window_.Setup());
  OPDELTA_RETURN_IF_ERROR(ledger_.Setup());
  OPDELTA_ASSIGN_OR_RETURN(uint64_t count, source_->CountRows(table_));
  stats_ = BackfillStats();
  LoadStats(count);
  setup_done_ = true;
  return Status::OK();
}

Status Backfiller::Step(bool* done) {
  if (done != nullptr) *done = stats_.done;
  if (!setup_done_) return Status::Internal("call Setup() first");
  if (stats_.done) return Status::OK();

  const uint64_t ddl_epoch_at_open = source_->ddl_epoch();
  std::vector<WindowRow> rows;
  bool more = false;
  OPDELTA_RETURN_IF_ERROR(window_.ReadRange(ledger_.cursor(), std::nullopt,
                                            chunk_rows_, &rows, &more));
  ChunkWindow::CloseOutcome outcome;
  OPDELTA_RETURN_IF_ERROR(window_.Close(ChunkWindow::CloseMode::kRepair,
                                        /*collect=*/false, std::nullopt,
                                        std::nullopt, &rows, &outcome));
  stats_.rows_deduped += outcome.rows_deduped;
  if (source_->ddl_epoch() != ddl_epoch_at_open) {
    // Concurrent DDL straddled the window: selected and repair-read images
    // mix column arities, so the chunk cannot ship as one batch. Leave the
    // cursor where it is and re-run the chunk next round under the settled
    // schema — the same inconclusive-and-retry discipline the scrubber
    // uses.
    OPDELTA_LOG(kInfo) << "backfill chunk " << stats_.chunks_done + 1
                       << " of " << table_
                       << " straddled a schema change; retrying";
    return Status::OK();
  }

  const extract::DeltaBatch chunk = window_.UpsertBatch(&rows);
  if (!chunk.records.empty()) {
    OPDELTA_RETURN_IF_ERROR(leg_->ShipSnapshot(chunk));
  }

  // A crash between the durable ship above and the ledger append below
  // re-runs this chunk under a fresh identity; the warehouse absorbs the
  // duplicate upserts idempotently.
  if (more) {
    OPDELTA_RETURN_IF_ERROR(
        ledger_.Advance(rows.back().key, chunk.records.size()));
  } else {
    OPDELTA_RETURN_IF_ERROR(ledger_.FinishPass(chunk.records.size()));
  }
  stats_.chunks_done = ledger_.chunks();
  stats_.rows_backfilled = ledger_.rows();
  if (stats_.chunks_total < stats_.chunks_done) {
    stats_.chunks_total = stats_.chunks_done;
  }
  if (more) return Status::OK();

  stats_.done = true;
  stats_.chunks_total = stats_.chunks_done;
  if (done != nullptr) *done = true;
  // Housekeeping only: leftover watermark rows are inert.
  Status st = window_.CleanupSignals();
  if (!st.ok()) {
    OPDELTA_LOG(kWarn) << "backfill signal cleanup failed: " << st.ToString();
  }
  return Status::OK();
}

Status Backfiller::Restart() {
  if (!setup_done_) return Status::Internal("call Setup() first");
  OPDELTA_RETURN_IF_ERROR(ledger_.Reset());
  OPDELTA_ASSIGN_OR_RETURN(uint64_t count, source_->CountRows(table_));
  stats_ = BackfillStats();
  LoadStats(count);
  OPDELTA_LOG(kInfo) << "backfill of " << table_
                     << " restarted after schema migration ("
                     << stats_.chunks_total << " chunks estimated)";
  return Status::OK();
}

}  // namespace opdelta::backfill
