// Quickstart: the end-to-end incremental-maintenance loop in ~100 lines.
//
//   1. create a source database and run OLTP transactions against it
//      through the Op-Delta capture wrapper;
//   2. ship the captured operation log to the warehouse;
//   3. apply each captured source transaction at the warehouse, preserving
//      transaction boundaries;
//   4. verify the warehouse converged to the source state.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <map>

#include "engine/database.h"
#include "extract/op_delta.h"
#include "sql/executor.h"
#include "transport/file_transport.h"
#include "transport/network_simulator.h"
#include "warehouse/integrator.h"
#include "workload/workload.h"

using namespace opdelta;  // examples favour brevity

#define DIE_ON_ERROR(expr)                                          \
  do {                                                              \
    ::opdelta::Status _st = (expr);                                 \
    if (!_st.ok()) {                                                \
      std::fprintf(stderr, "error: %s\n", _st.ToString().c_str()); \
      return 1;                                                     \
    }                                                               \
  } while (0)

// Usage: quickstart [work_dir]  (default /tmp/opdelta_quickstart; wiped first)
int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "/tmp/opdelta_quickstart";
  (void)Env::Default()->RemoveDirAll(root);  // fresh demo dir; best effort

  // --- 1. Source system -------------------------------------------------
  engine::DatabaseOptions options;
  options.auto_timestamp = false;  // keep the demo byte-exact
  std::unique_ptr<engine::Database> source, warehouse;
  DIE_ON_ERROR(engine::Database::Open(root + "/source", options, &source));
  DIE_ON_ERROR(
      engine::Database::Open(root + "/warehouse", options, &warehouse));

  workload::PartsWorkload parts;
  DIE_ON_ERROR(parts.CreateTable(source.get(), "parts"));
  DIE_ON_ERROR(parts.CreateTable(warehouse.get(), "parts"));

  // The COTS application submits SQL through an executor; the Op-Delta
  // wrapper intercepts every statement right before submission and appends
  // it to a file log — no application or engine changes.
  sql::Executor executor(source.get());
  Result<std::unique_ptr<extract::OpDeltaFileSink>> sink =
      extract::OpDeltaFileSink::Create(root + "/ops.log");
  DIE_ON_ERROR(sink.status());
  extract::OpDeltaCapture capture(
      &executor, std::shared_ptr<extract::OpDeltaSink>(std::move(*sink)),
      extract::OpDeltaCapture::Options());

  // Three business transactions.
  DIE_ON_ERROR(capture.RunTransaction({parts.MakeInsert("parts", 0, 1000)})
                   .status());
  DIE_ON_ERROR(
      capture.RunTransaction({parts.MakeUpdate("parts", 0, 400, "revised")})
          .status());
  DIE_ON_ERROR(
      capture.RunTransaction({parts.MakeDelete("parts", 700, 800)}).status());
  std::printf("source: ran 3 transactions, %llu live rows\n",
              static_cast<unsigned long long>(
                  source->CountRows("parts").value()));

  // --- 2. Transport ------------------------------------------------------
  transport::NetworkSimulator net(
      transport::NetworkSimulator::SwitchedLan10Mbps());
  transport::FileTransport transport(&net);
  DIE_ON_ERROR(transport.Ship(root + "/ops.log", root + "/ops_at_wh.log"));
  std::printf("transport: shipped %llu bytes of Op-Delta over the simulated "
              "LAN\n",
              static_cast<unsigned long long>(transport.bytes_shipped()));

  // --- 3. Integration ----------------------------------------------------
  std::vector<extract::OpDeltaTxn> txns;
  DIE_ON_ERROR(extract::OpDeltaLogReader::ReadFile(
      root + "/ops_at_wh.log", workload::PartsWorkload::Schema(), &txns));
  warehouse::OpDeltaIntegrator integrator(warehouse.get());
  warehouse::IntegrationStats stats;
  DIE_ON_ERROR(integrator.Apply(txns, &stats));
  std::printf("warehouse: applied %llu source txns (%llu statements, %llu "
              "rows) with zero outage\n",
              static_cast<unsigned long long>(stats.transactions),
              static_cast<unsigned long long>(stats.statements_executed),
              static_cast<unsigned long long>(stats.rows_affected));

  // --- 4. Verification ---------------------------------------------------
  auto contents = [](engine::Database* db) {
    std::map<int64_t, std::string> rows;
    (void)db->Scan(nullptr, "parts", engine::Predicate::True(),
             [&](const storage::Rid&, const catalog::Row& row) {
               rows[row[0].AsInt64()] = row[1].AsString();
               return true;
             });
    return rows;
  };
  if (contents(source.get()) == contents(warehouse.get())) {
    std::printf("verification: warehouse == source. done.\n");
    return 0;
  }
  std::fprintf(stderr, "verification FAILED: states differ\n");
  return 1;
}
