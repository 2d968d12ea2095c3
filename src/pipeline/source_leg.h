#ifndef OPDELTA_PIPELINE_SOURCE_LEG_H_
#define OPDELTA_PIPELINE_SOURCE_LEG_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "extract/delta.h"
#include "extract/op_delta.h"
#include "pipeline/pipeline_options.h"
#include "pipeline/shipped_message.h"
#include "sql/executor.h"
#include "sql/statement_cache.h"
#include "transport/persistent_queue.h"
#include "warehouse/apply_scheduler.h"
#include "warehouse/integrator.h"

namespace opdelta::pipeline {

/// Shared apply-side machinery a consumer may hand to Integrate. Default
/// construction means "serial, parse every statement". All members are
/// caller-owned and may be shared across legs and threads (the scheduler
/// runs each batch's transactions on `pool`; the cache is internally
/// synchronized).
struct ApplyContext {
  /// Worker pool for conflict-aware parallel apply. nullptr = serial.
  ThreadPool* pool = nullptr;
  /// Per-batch apply parallelism; <= 1 = serial even with a pool.
  size_t apply_threads = 1;
  /// Prepared-statement cache; nullptr = full parse per statement.
  sql::StatementCache* statement_cache = nullptr;
};

/// Counters for one extract→ship leg.
struct LegStats {
  uint64_t rounds = 0;             // ExtractAndShip calls
  uint64_t records_extracted = 0;  // value-delta images / op statements
  uint64_t batches_shipped = 0;
  uint64_t bytes_shipped = 0;
};

/// One source table's extract→ship half of the Figure-1 loop: watermarked
/// extraction by any Method, durable shipping through a PersistentQueue,
/// restart-safe persisted state. The integrate half is pulled by whoever
/// consumes the queue (a `hub::DeltaHub` apply worker) via PeekShipped /
/// Integrate / AckShipped.
///
/// The watermark persists after a successful durable enqueue: once a batch
/// is staged in the queue it is never re-extracted, and a crash before
/// integration replays it from the queue (at-least-once delivery).
///
/// Threading: ExtractAndShip and the consumer-side calls may run on
/// different threads, but each side must be externally serialized (one
/// producer, one consumer at a time).
class SourceLeg {
 public:
  static Result<std::unique_ptr<SourceLeg>> Create(engine::Database* source,
                                                   PipelineOptions options);

  /// Installs capture machinery (trigger / op-log table), opens the queue,
  /// loads the persisted watermark. Idempotent.
  Status Setup();

  /// For Method::kOpDelta: the capture wrapper the application must route
  /// its statements through. nullptr for other methods.
  extract::OpDeltaCapture* capture() { return capture_.get(); }

  /// Extracts changes since the watermark, ships them durably, persists
  /// the advanced watermark. `*shipped` reports whether a batch went out.
  /// When `shipped_message` is non-null it receives a copy of the framed
  /// message that went out (empty if nothing shipped) — the backfiller
  /// inspects it for events concurrent with a chunk select.
  ///
  /// At most one frame ships per call. An op-delta drain that crosses a
  /// captured DDL event is split into per-schema-epoch frames (one epoch
  /// stamp per frame); the extras stay pending in memory and ship, in
  /// order, on the following calls — callers that loop until `!*shipped`
  /// (or until a marker arrives) drain them naturally.
  Status ExtractAndShip(bool* shipped = nullptr,
                        std::string* shipped_message = nullptr);

  /// Ships a backfill snapshot chunk through the same durable queue,
  /// stamped with the leg's next (epoch, seq) and the snapshot marker, so
  /// the warehouse integrates and dedupes it exactly like a live batch.
  /// Rejected with Busy while an extracted-but-unshipped live batch is
  /// pending (its identity is already stamped with the next seq).
  Status ShipSnapshot(const extract::DeltaBatch& chunk);

  /// Consumer side: the oldest shipped-but-unacknowledged message.
  /// NotFound when the backlog is empty.
  Status PeekShipped(std::string* message);

  /// Acknowledges the message returned by the last PeekShipped.
  Status AckShipped();

  /// Shipped-but-unacknowledged batches (counts across restarts).
  Result<uint64_t> Backlog();

  /// Applies one shipped message to `warehouse` (table
  /// options().warehouse_table) through ApplyMessage, decoding op-delta
  /// bodies against this source's schemas of the frame's epoch.
  Status Integrate(engine::Database* warehouse,
                   warehouse::ApplyLedger* ledger, Slice message,
                   const ApplyContext& ctx,
                   warehouse::IntegrationStats* stats);

  const PipelineOptions& options() const { return options_; }
  const LegStats& stats() const { return stats_; }
  engine::Database* source() { return source_; }

 private:
  SourceLeg(engine::Database* source, PipelineOptions options);

  Status LoadState();
  Status SaveState();

  /// Extracts pending changes into one or more framed queue messages
  /// appended to `pending_` (none = nothing to ship). Op-delta drains
  /// split at schema events; every other method yields at most one frame.
  Status ExtractPending();

  engine::Database* source_;
  PipelineOptions options_;
  transport::PersistentQueue queue_;
  std::unique_ptr<sql::Executor> source_executor_;
  std::unique_ptr<extract::OpDeltaCapture> capture_;
  bool setup_done_ = false;

  Micros ts_watermark_ = 0;
  txn::Lsn lsn_watermark_ = 0;

  // Batch-identity state (persisted with the watermarks): `epoch_` is
  // minted once per capture-state lifetime, `next_seq_` stamps the next
  // shipped batch. Setup reconciles next_seq_ with the stamps found in the
  // durable queue, so a crash between the enqueue and the state save can
  // never reuse a sequence number for different data.
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;

  // Source DDL epoch through which the op log has been drained (persisted
  // with the watermarks). The source catalog may already be several DDL
  // changes ahead of rows still sitting in the log; drained before images
  // must decode against the schemas of *this* epoch, not the current one.
  // A leg without a state file seeds it from the source's current epoch.
  uint64_t drained_epoch_ = 0;
  LegStats stats_;

  // Batches that were extracted but not yet durably enqueued, in ship
  // order, each already framed under its stamped identity. Extraction is
  // destructive for kTrigger/kOpDelta (the capture table is drained) and
  // advances in-memory watermarks for the others, so the frames must be
  // retained and retried — dropping them on a ship failure would lose
  // data. More than one entry pends only when an op-delta drain was split
  // at schema events into per-epoch frames.
  struct PendingFrame {
    std::string frame;
    uint64_t records = 0;
    uint64_t seq = 0;  // the identity stamped into `frame`
  };
  std::deque<PendingFrame> pending_;
};

/// Resolves the schema map an op-delta body decodes against, by the
/// frame's schema epoch.
using SchemaResolver =
    std::function<Result<std::shared_ptr<const catalog::SchemaMap>>(
        uint64_t schema_epoch)>;

/// The one apply path for a decoded message. Value deltas integrate into
/// `table` as idempotent net changes; op deltas parse against
/// `schemas_at(id.schema_epoch)` and replay per transaction through the
/// conflict-aware scheduler `ctx` configures (serial without a pool). The
/// message's BatchId is checked against and advanced in `ledger` (may be
/// nullptr) atomically with the apply. Accumulates into `*stats` (may be
/// nullptr).
Status ApplyMessage(engine::Database* warehouse, const std::string& table,
                    const ShippedMessage& message,
                    const SchemaResolver& schemas_at,
                    warehouse::ApplyLedger* ledger, const ApplyContext& ctx,
                    warehouse::IntegrationStats* stats);

}  // namespace opdelta::pipeline

#endif  // OPDELTA_PIPELINE_SOURCE_LEG_H_
