#include "pipeline/source_leg.h"

#include "common/clock.h"
#include "common/coding.h"
#include "common/env.h"
#include "extract/log_extractor.h"
#include "extract/timestamp_extractor.h"
#include "extract/trigger_extractor.h"

namespace opdelta::pipeline {

using extract::DeltaBatch;

const char* MethodName(Method method) {
  switch (method) {
    case Method::kTimestamp:
      return "timestamp";
    case Method::kLog:
      return "log";
    case Method::kTrigger:
      return "trigger";
    case Method::kOpDelta:
      return "op-delta";
  }
  return "?";
}

bool ParseMethod(const std::string& name, Method* out) {
  if (name == "timestamp") {
    *out = Method::kTimestamp;
  } else if (name == "log") {
    *out = Method::kLog;
  } else if (name == "trigger") {
    *out = Method::kTrigger;
  } else if (name == "op-delta" || name == "opdelta") {
    *out = Method::kOpDelta;
  } else {
    return false;
  }
  return true;
}

SourceLeg::SourceLeg(engine::Database* source, PipelineOptions options)
    : source_(source), options_(std::move(options)) {}

Result<std::unique_ptr<SourceLeg>> SourceLeg::Create(
    engine::Database* source, PipelineOptions options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("work_dir required");
  }
  if (source->GetTable(options.source_table) == nullptr) {
    return Status::NotFound("source table " + options.source_table);
  }
  if (options.source_id.empty()) options.source_id = options.source_table;
  return std::unique_ptr<SourceLeg>(
      new SourceLeg(source, std::move(options)));
}

Status SourceLeg::Setup() {
  if (setup_done_) return Status::OK();
  OPDELTA_RETURN_IF_ERROR(Env::Default()->CreateDir(options_.work_dir));
  OPDELTA_RETURN_IF_ERROR(
      queue_.Open(options_.work_dir + "/queue", options_.queue_max_bytes));
  OPDELTA_RETURN_IF_ERROR(LoadState());

  // Reconcile the identity state against the durable queue: a crash after
  // the enqueue but before the state save must not reuse the stamped seq
  // for different data (fatal for destructive extraction methods, whose
  // re-extraction yields *new* changes under the old number — the ledger
  // would drop them as duplicates). The queue outlives the state file, so
  // the stamps found in it are authoritative.
  OPDELTA_RETURN_IF_ERROR(queue_.ForEachMessage([&](Slice message) {
    extract::BatchId id;
    if (!DecodeMessageId(message, &id).ok()) return true;
    if (id.epoch > epoch_ || (id.epoch == epoch_ && id.seq >= next_seq_)) {
      epoch_ = id.epoch;
      next_seq_ = id.seq + 1;
    }
    return true;
  }));
  // A fresh capture state (or a wiped state file with an empty queue)
  // mints a new epoch, ordered after any previously applied one by the
  // wall clock, so recycled sequence numbers can never collide with
  // identities the warehouse ledger has already recorded. Persisting can
  // wait for the first shipped batch: until then the epoch stamps nothing,
  // and once a stamped batch is durably enqueued the queue scan above
  // re-derives it even if the state save never lands.
  if (epoch_ == 0) {
    epoch_ = static_cast<uint64_t>(RealClock::Default()->NowMicros());
    next_seq_ = 1;
  }
  switch (options_.method) {
    case Method::kTrigger: {
      Result<std::string> delta_table =
          extract::TriggerExtractor::Install(source_, options_.source_table);
      if (!delta_table.ok() &&
          delta_table.status().code() != StatusCode::kAlreadyExists) {
        return delta_table.status();
      }
      break;
    }
    case Method::kOpDelta: {
      if (source_->GetTable(options_.op_log_table) == nullptr) {
        OPDELTA_RETURN_IF_ERROR(source_->CreateTable(
            options_.op_log_table, extract::OpDeltaLogTableSchema()));
      }
      source_executor_ = std::make_unique<sql::Executor>(source_);
      capture_ = std::make_unique<extract::OpDeltaCapture>(
          source_executor_.get(),
          std::make_shared<extract::OpDeltaDbSink>(options_.op_log_table),
          extract::OpDeltaCapture::Options());
      break;
    }
    case Method::kTimestamp:
    case Method::kLog:
      break;  // pure readers, nothing to install
  }
  setup_done_ = true;
  return Status::OK();
}

Status SourceLeg::LoadState() {
  const std::string path = options_.work_dir + "/watermarks";
  if (!Env::Default()->FileExists(path)) {
    // A fresh leg has drained nothing yet: its op log starts at the
    // source's current schemas.
    drained_epoch_ = source_->ddl_epoch();
    return Status::OK();
  }
  std::string data;
  OPDELTA_RETURN_IF_ERROR(Env::Default()->ReadFileToString(path, &data));
  Slice input(data);
  uint64_t ts = 0;
  if (!GetFixed64(&input, &ts) || !GetFixed64(&input, &lsn_watermark_) ||
      !GetFixed64(&input, &epoch_) || !GetFixed64(&input, &next_seq_) ||
      !GetFixed64(&input, &drained_epoch_)) {
    return Status::Corruption("pipeline watermark file " + path +
                              " is short");
  }
  ts_watermark_ = static_cast<Micros>(ts);
  return Status::OK();
}

Status SourceLeg::SaveState() {
  std::string data;
  PutFixed64(&data, static_cast<uint64_t>(ts_watermark_));
  PutFixed64(&data, lsn_watermark_);
  PutFixed64(&data, epoch_);
  PutFixed64(&data, next_seq_);
  PutFixed64(&data, drained_epoch_);
  return WriteFileAtomic(Env::Default(), options_.work_dir + "/watermarks",
                         Slice(data));
}

Status SourceLeg::ExtractPending() {
  engine::Table* src = source_->GetTable(options_.source_table);

  // Frames a payload under the identity stamped at capture: a ship retry
  // re-ships these exact bytes under this exact identity, so the warehouse
  // sees one stable (source, epoch, seq) per batch of data. Consecutive
  // pending frames get consecutive seqs.
  auto stage = [&](uint64_t records, uint64_t schema_epoch,
                   const auto& encode) {
    extract::BatchId id{options_.source_id, epoch_,
                        next_seq_ + pending_.size()};
    id.schema_epoch = schema_epoch;
    PendingFrame pf;
    pf.records = records;
    pf.seq = id.seq;
    encode(id, &pf.frame);
    pending_.push_back(std::move(pf));
  };

  DeltaBatch batch;
  switch (options_.method) {
    case Method::kTimestamp: {
      extract::TimestampExtractor extractor(source_, options_.source_table,
                                            options_.timestamp_column);
      OPDELTA_ASSIGN_OR_RETURN(batch, extractor.ExtractSince(ts_watermark_));
      // Advance conservatively to the largest timestamp actually seen.
      const int ts_col =
          src->schema().ColumnIndex(options_.timestamp_column);
      for (const extract::DeltaRecord& r : batch.records) {
        if (!r.image[ts_col].is_null() &&
            r.image[ts_col].AsTimestamp() > ts_watermark_) {
          ts_watermark_ = r.image[ts_col].AsTimestamp();
        }
      }
      break;
    }

    case Method::kLog: {
      extract::LogExtractor extractor(source_->wal()->dir());
      txn::Lsn new_watermark = lsn_watermark_;
      OPDELTA_ASSIGN_OR_RETURN(
          batch, extractor.ExtractSince(lsn_watermark_, src->id(),
                                        options_.source_table, src->schema(),
                                        &new_watermark));
      lsn_watermark_ = new_watermark;
      break;
    }

    case Method::kTrigger: {
      OPDELTA_ASSIGN_OR_RETURN(
          batch,
          extract::TriggerExtractor::Drain(source_, options_.source_table));
      break;
    }

    case Method::kOpDelta: {
      // Drained before images decode against the schemas of the epoch the
      // log rows were *written* under — the source catalog may already be
      // past it. The assembler's own overlay then tracks any schema
      // events found mid-log.
      OPDELTA_ASSIGN_OR_RETURN(
          std::shared_ptr<const catalog::SchemaMap> schemas,
          source_->SchemaMapAt(drained_epoch_));
      std::vector<extract::OpDeltaTxn> txns;
      OPDELTA_RETURN_IF_ERROR(extract::OpDeltaLogReader::DrainDbTable(
          source_, options_.op_log_table, *schemas, &txns));

      // Split the drain at schema events: a frame carries exactly one
      // schema-epoch stamp, but before images on the two sides of a DDL
      // encode under different schemas. Each segment ships under the
      // epoch its rows were written in and ends with the event that
      // closes that epoch; the next segment opens under the event's
      // post-change epoch.
      std::vector<extract::OpDeltaTxn> segment;
      uint64_t seg_records = 0;
      auto flush_segment = [&]() {
        if (segment.empty()) return;
        stage(seg_records, drained_epoch_,
              [&](const extract::BatchId& id, std::string* frame) {
                EncodeOpDeltaMessage(id, segment, frame);
              });
        segment.clear();
        seg_records = 0;
      };
      for (extract::OpDeltaTxn& t : txns) {
        uint64_t post_ddl_epoch = 0;
        for (const extract::OpDeltaRecord& op : t.ops) {
          if (op.is_schema_event()) {
            post_ddl_epoch = op.schema_event->ddl_epoch;
          }
        }
        seg_records += t.ops.size();
        segment.push_back(std::move(t));
        if (post_ddl_epoch != 0) {
          flush_segment();
          drained_epoch_ = post_ddl_epoch;
        }
      }
      flush_segment();
      return Status::OK();
    }
  }
  if (batch.records.empty()) return Status::OK();
  stage(batch.records.size(), source_->ddl_epoch(),
        [&](const extract::BatchId& id, std::string* frame) {
          EncodeValueDeltaMessage(id, batch, frame);
        });
  return Status::OK();
}

Status SourceLeg::ExtractAndShip(bool* shipped,
                                 std::string* shipped_message) {
  if (shipped != nullptr) *shipped = false;
  if (shipped_message != nullptr) shipped_message->clear();
  if (!setup_done_) return Status::Internal("call Setup() first");
  stats_.rounds++;

  if (pending_.empty()) {
    // Nothing staged from a failed ship or a DDL-split drain: extract.
    // Extraction is destructive (drained capture state / advanced
    // watermarks), so anything it stages must ship or stay pending.
    OPDELTA_RETURN_IF_ERROR(ExtractPending());
  }
  // The watermark may advance even on an empty round (kLog skips
  // non-matching records); persist it regardless.
  if (pending_.empty()) return SaveState();

  PendingFrame& front = pending_.front();
  OPDELTA_RETURN_IF_ERROR(queue_.Enqueue(Slice(front.frame),
                                         /*durable=*/true));
  next_seq_ = front.seq + 1;
  stats_.records_extracted += front.records;
  stats_.batches_shipped++;
  stats_.bytes_shipped += front.frame.size();
  if (shipped != nullptr) *shipped = true;
  if (shipped_message != nullptr) *shipped_message = front.frame;
  pending_.pop_front();
  // Persisting after the durable enqueue makes the pair restart-safe: a
  // crash here replays the staged batch, never re-extracts it — and Setup
  // re-derives next_seq_ from the queue if this save never lands.
  return SaveState();
}

Status SourceLeg::ShipSnapshot(const extract::DeltaBatch& chunk) {
  if (!setup_done_) return Status::Internal("call Setup() first");
  if (!pending_.empty()) {
    // Pending live batches were already stamped from next_seq_ on;
    // shipping a snapshot under the same numbers would make the ledger
    // drop one of the two. Retry the live ship first (ExtractAndShip
    // drains them).
    return Status::Busy("live batch pending; retry its ship first");
  }
  extract::BatchId id{options_.source_id, epoch_, next_seq_,
                      /*snapshot=*/true};
  id.schema_epoch = source_->ddl_epoch();
  std::string message;
  EncodeValueDeltaMessage(id, chunk, &message);
  OPDELTA_RETURN_IF_ERROR(queue_.Enqueue(Slice(message), /*durable=*/true));
  next_seq_++;
  stats_.batches_shipped++;
  stats_.bytes_shipped += message.size();
  // A crash before this save re-derives next_seq_ from the queue scan in
  // Setup, exactly as the live path does.
  return SaveState();
}

Status SourceLeg::PeekShipped(std::string* message) {
  return queue_.Peek(message);
}

Status SourceLeg::AckShipped() { return queue_.Ack(); }

Result<uint64_t> SourceLeg::Backlog() { return queue_.Backlog(); }

Status SourceLeg::Integrate(engine::Database* warehouse,
                            warehouse::ApplyLedger* ledger, Slice message,
                            const ApplyContext& ctx,
                            warehouse::IntegrationStats* stats) {
  ShippedMessage decoded;
  OPDELTA_RETURN_IF_ERROR(DecodeMessage(message, &decoded));
  if (decoded.kind == PayloadKind::kOpDelta &&
      options_.warehouse_table != options_.source_table) {
    return Status::NotSupported(
        "op-delta pipeline requires matching table names");
  }
  // Captured statements can touch auxiliary tables besides the source
  // table (e.g. the backfill signal table), and hybrid-mode before images
  // need each touched table's schema to parse — decode against the
  // all-tables map of the epoch the frame was *encoded* under. A frame
  // from an epoch this source no longer knows (or does not know yet) fails
  // with kSchemaMismatch instead of a guessed decode.
  return ApplyMessage(
      warehouse, options_.warehouse_table, decoded,
      [this](uint64_t epoch) { return source_->SchemaMapAt(epoch); }, ledger,
      ctx, stats);
}

Status ApplyMessage(engine::Database* warehouse, const std::string& table,
                    const ShippedMessage& message,
                    const SchemaResolver& schemas_at,
                    warehouse::ApplyLedger* ledger, const ApplyContext& ctx,
                    warehouse::IntegrationStats* stats) {
  const extract::BatchId& id = message.id;
  // Both integrators overwrite their stats; accumulate into the caller's.
  warehouse::IntegrationStats local;
  if (message.kind == PayloadKind::kValueDelta) {
    // Net-change integration: idempotent under at-least-once delivery, and
    // exactly-once when a ledger dedupes the redeliveries outright.
    OPDELTA_RETURN_IF_ERROR(warehouse::ApplyNetChanges(
        warehouse, table, message.batch, id, ledger, &local));
  } else {
    if (warehouse->GetTable(table) == nullptr) {
      return Status::NotFound("warehouse table " + table);
    }
    OPDELTA_ASSIGN_OR_RETURN(std::shared_ptr<const catalog::SchemaMap> schemas,
                             schemas_at(id.schema_epoch));
    std::vector<extract::OpDeltaTxn> txns;
    OPDELTA_RETURN_IF_ERROR(
        extract::ParseOpDeltaLog(message.op_body, *schemas, &txns));
    // The scheduler applies disjoint-footprint transactions concurrently
    // and falls back to the serial integrator on anything it cannot prove
    // safe; with no pool it *is* the serial integrator (plus the cache).
    warehouse::ParallelApplyScheduler::Options sched;
    sched.pool = ctx.pool;
    sched.max_inflight = ctx.apply_threads;
    sched.cache = ctx.statement_cache;
    warehouse::ParallelApplyScheduler scheduler(warehouse, sched);
    OPDELTA_RETURN_IF_ERROR(scheduler.Apply(txns, id, ledger, &local));
  }
  if (stats != nullptr) {
    stats->statements_executed += local.statements_executed;
    stats->rows_affected += local.rows_affected;
    stats->transactions += local.transactions;
    stats->txns_parallel += local.txns_parallel;
    stats->wall_micros += local.wall_micros;
    stats->outage_micros += local.outage_micros;
    stats->duplicate_batches += local.duplicate_batches;
    stats->duplicate_txns += local.duplicate_txns;
    stats->schema_migrations += local.schema_migrations;
    if (id.schema_epoch > stats->schema_epoch) {
      stats->schema_epoch = id.schema_epoch;
    }
  }
  return Status::OK();
}

}  // namespace opdelta::pipeline
