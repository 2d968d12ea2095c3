// COTS-integrated sources with replication (paper sections 2.2 and 4.1):
// two database instances hold replicas of the same logical PARTS data,
// kept in sync by the COTS layer (not by the DBMSs — "the COTS software
// control the replication logic and the DBMSs are essentially unaware").
//
// Capturing deltas *below* the COTS layer (triggers on both replicas)
// yields two copies of every change that must be reconciled into one
// authoritative value. Capturing *at* the COTS layer with the Op-Delta
// wrapper yields a single authoritative operation stream with nothing to
// reconcile — the architectural argument of section 4.1.
#include <cstdio>

#include "engine/database.h"
#include "extract/op_delta.h"
#include "extract/reconciler.h"
#include "extract/trigger_extractor.h"
#include "sql/executor.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"

using namespace opdelta;

#define DIE_ON_ERROR(expr)                                          \
  do {                                                              \
    ::opdelta::Status _st = (expr);                                 \
    if (!_st.ok()) {                                                \
      std::fprintf(stderr, "error: %s\n", _st.ToString().c_str()); \
      return 1;                                                     \
    }                                                               \
  } while (0)

/// The COTS business layer: one logical write API, two replicas behind it.
class CotsPartsService {
 public:
  CotsPartsService(engine::Database* a, engine::Database* b,
                   extract::OpDeltaCapture* capture)
      : exec_b_(b), capture_(capture) {
    (void)a;  // replica A is written through the capture wrapper
  }

  /// Every business transaction is applied to both replicas. Global
  /// serializability is NOT enforced across them (section 2.1) — each
  /// replica commits independently.
  Status Apply(const std::vector<sql::Statement>& stmts) {
    OPDELTA_RETURN_IF_ERROR(capture_->RunTransaction(stmts).status());
    for (const sql::Statement& stmt : stmts) {
      OPDELTA_RETURN_IF_ERROR(exec_b_.ExecuteSql(stmt.ToSql()).status());
    }
    return Status::OK();
  }

 private:
  sql::Executor exec_b_;
  extract::OpDeltaCapture* capture_;
};

// Usage: cots_integration [work_dir]  (default /tmp/opdelta_cots; wiped first)
int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "/tmp/opdelta_cots";
  (void)Env::Default()->RemoveDirAll(root);  // fresh demo dir; best effort

  engine::DatabaseOptions options;
  options.auto_timestamp = false;
  std::unique_ptr<engine::Database> replica_a, replica_b, warehouse;
  DIE_ON_ERROR(engine::Database::Open(root + "/a", options, &replica_a));
  DIE_ON_ERROR(engine::Database::Open(root + "/b", options, &replica_b));
  DIE_ON_ERROR(engine::Database::Open(root + "/wh", options, &warehouse));

  workload::PartsWorkload parts;
  DIE_ON_ERROR(parts.CreateTable(replica_a.get(), "parts"));
  DIE_ON_ERROR(parts.CreateTable(replica_b.get(), "parts"));
  DIE_ON_ERROR(parts.CreateTable(warehouse.get(), "parts"));

  // Low-level capture: triggers on BOTH replicas (they don't know about
  // each other).
  DIE_ON_ERROR(
      extract::TriggerExtractor::Install(replica_a.get(), "parts").status());
  DIE_ON_ERROR(
      extract::TriggerExtractor::Install(replica_b.get(), "parts").status());

  // COTS-level capture: the Op-Delta wrapper around replica A's executor.
  sql::Executor exec_a(replica_a.get());
  Result<std::unique_ptr<extract::OpDeltaFileSink>> sink =
      extract::OpDeltaFileSink::Create(root + "/ops.log");
  DIE_ON_ERROR(sink.status());
  extract::OpDeltaCapture capture(
      &exec_a, std::shared_ptr<extract::OpDeltaSink>(std::move(*sink)),
      extract::OpDeltaCapture::Options());

  CotsPartsService service(replica_a.get(), replica_b.get(), &capture);
  DIE_ON_ERROR(service.Apply({parts.MakeInsert("parts", 0, 500)}));
  DIE_ON_ERROR(service.Apply({parts.MakeUpdate("parts", 100, 300, "hot")}));
  DIE_ON_ERROR(service.Apply({parts.MakeDelete("parts", 0, 50)}));
  std::printf("COTS service ran 3 business transactions against 2 replicas\n\n");

  // --- below-the-COTS capture needs reconciliation -----------------------
  Result<extract::DeltaBatch> deltas_a =
      extract::TriggerExtractor::Drain(replica_a.get(), "parts");
  Result<extract::DeltaBatch> deltas_b =
      extract::TriggerExtractor::Drain(replica_b.get(), "parts");
  DIE_ON_ERROR(deltas_a.status());
  DIE_ON_ERROR(deltas_b.status());
  std::printf("trigger capture: replica A saw %zu images, replica B saw %zu "
              "images — every change captured twice\n",
              deltas_a->records.size(), deltas_b->records.size());

  extract::Reconciler::Stats rstats;
  Result<extract::DeltaBatch> authoritative =
      extract::Reconciler::Reconcile({&*deltas_a, &*deltas_b}, &rstats);
  DIE_ON_ERROR(authoritative.status());
  std::printf("reconciliation: %llu duplicates dropped, %llu conflicts "
              "resolved by site priority, %zu authoritative net changes\n\n",
              static_cast<unsigned long long>(rstats.duplicates_dropped),
              static_cast<unsigned long long>(rstats.conflicts),
              authoritative->records.size());

  // --- COTS-level Op-Delta capture needs none ----------------------------
  std::vector<extract::OpDeltaTxn> txns;
  DIE_ON_ERROR(extract::OpDeltaLogReader::ReadFile(
      root + "/ops.log", workload::PartsWorkload::Schema(), &txns));
  size_t op_count = 0;
  for (const auto& t : txns) op_count += t.ops.size();
  std::printf("Op-Delta capture at the COTS layer: %zu transactions, %zu "
              "operations, one authoritative stream, nothing to reconcile\n",
              txns.size(), op_count);

  // Integrate the op stream and check against replica A.
  warehouse::OpDeltaIntegrator integrator(warehouse.get());
  DIE_ON_ERROR(integrator.Apply(txns, nullptr));
  const uint64_t wh_rows = warehouse->CountRows("parts").value();
  const uint64_t src_rows = replica_a->CountRows("parts").value();
  std::printf("warehouse after integration: %llu rows (source has %llu)\n",
              static_cast<unsigned long long>(wh_rows),
              static_cast<unsigned long long>(src_rows));
  return wh_rows == src_rows ? 0 : 1;
}
