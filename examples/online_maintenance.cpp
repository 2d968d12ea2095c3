// Online warehouse maintenance (paper section 4.1): while OLAP queries run
// against the warehouse, apply the same set of source changes once as a
// value-delta batch (which takes an exclusive table lock — the warehouse
// "outage") and once as Op-Delta transactions (which interleave with the
// queries). Prints the OLAP latency profile under each integrator.
#include <atomic>
#include <cstdio>
#include <thread>

#include "engine/database.h"
#include "extract/op_delta.h"
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

namespace {

struct LatencyProfile {
  int queries = 0;
  Micros total = 0;
  Micros worst = 0;
};

void OlapThread(engine::Database* wh, std::atomic<bool>* stop,
                LatencyProfile* profile) {
  while (!stop->load()) {
    Result<workload::OlapQueryResult> r = workload::RunOlapQuery(wh, "parts");
    if (!r.ok()) continue;
    profile->queries++;
    profile->total += r->latency_micros;
    if (r->latency_micros > profile->worst) {
      profile->worst = r->latency_micros;
    }
  }
}

}  // namespace

// Usage: online_maintenance [work_dir]  (default /tmp/opdelta_online; wiped first)
int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "/tmp/opdelta_online";
  (void)Env::Default()->RemoveDirAll(root);  // fresh demo dir; best effort

  // Source: capture one change set both ways.
  std::unique_ptr<engine::Database> source;
  DIE_ON_ERROR(engine::Database::Open(root + "/src",
                                      engine::DatabaseOptions(), &source));
  workload::PartsWorkload parts;
  DIE_ON_ERROR(parts.CreateTable(source.get(), "parts"));
  DIE_ON_ERROR(parts.Populate(source.get(), "parts", 30000));
  DIE_ON_ERROR(
      extract::TriggerExtractor::Install(source.get(), "parts").status());
  DIE_ON_ERROR(
      source->CreateTable("op_log", extract::OpDeltaLogTableSchema()));
  sql::Executor exec(source.get());
  extract::OpDeltaCapture capture(
      &exec, std::make_shared<extract::OpDeltaDbSink>("op_log"),
      extract::OpDeltaCapture::Options());
  for (int i = 0; i < 6; ++i) {
    DIE_ON_ERROR(capture
                     .RunTransaction({parts.MakeUpdate(
                         "parts", i * 4000, (i + 1) * 4000,
                         "gen" + std::to_string(i))})
                     .status());
  }
  Result<extract::DeltaBatch> value_batch =
      extract::TriggerExtractor::Drain(source.get(), "parts");
  DIE_ON_ERROR(value_batch.status());
  std::vector<extract::OpDeltaTxn> op_txns;
  DIE_ON_ERROR(extract::OpDeltaLogReader::DrainDbTable(
      source.get(), "op_log", workload::PartsWorkload::Schema(), &op_txns));
  std::printf("captured: %zu value-delta images vs %zu Op-Delta txns\n\n",
              value_batch->records.size(), op_txns.size());

  // One warehouse per integrator, OLAP stream running throughout.
  auto run = [&](bool op_delta, LatencyProfile* profile,
                 Micros* outage) -> int {
    engine::DatabaseOptions wh_options;
    wh_options.auto_timestamp = false;
    std::unique_ptr<engine::Database> wh;
    DIE_ON_ERROR(engine::Database::Open(
        root + (op_delta ? "/wh_op" : "/wh_value"), wh_options, &wh));
    DIE_ON_ERROR(parts.CreateTable(wh.get(), "parts"));
    DIE_ON_ERROR(parts.Populate(wh.get(), "parts", 30000));
    DIE_ON_ERROR(wh->CreateIndex("parts", "id"));

    std::atomic<bool> stop{false};
    std::thread olap(OlapThread, wh.get(), &stop, profile);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    if (op_delta) {
      warehouse::OpDeltaIntegrator integrator(wh.get());
      warehouse::IntegrationStats stats;
      DIE_ON_ERROR(integrator.Apply(op_txns, &stats));
      *outage = stats.outage_micros;
    } else {
      warehouse::ValueDeltaIntegrator integrator(wh.get(), "parts");
      warehouse::IntegrationStats stats;
      DIE_ON_ERROR(integrator.Apply(*value_batch, &stats));
      *outage = stats.outage_micros;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop = true;
    olap.join();
    return 0;
  };

  LatencyProfile value_profile, op_profile;
  Micros value_outage = 0, op_outage = 0;
  if (run(false, &value_profile, &value_outage) != 0) return 1;
  if (run(true, &op_profile, &op_outage) != 0) return 1;

  auto report = [](const char* name, const LatencyProfile& p, Micros outage) {
    std::printf("%-22s outage %8.1fms | %3d OLAP queries | avg %6.1fms | "
                "worst %8.1fms\n",
                name, outage / 1000.0, p.queries,
                p.queries ? p.total / 1000.0 / p.queries : 0.0,
                p.worst / 1000.0);
  };
  report("value delta (batch):", value_profile, value_outage);
  report("Op-Delta (per txn):", op_profile, op_outage);
  std::printf("\nthe value-delta batch blocks readers for its entire "
              "duration; Op-Delta transactions interleave with them — the "
              "paper's no-outage claim.\n");
  return 0;
}
