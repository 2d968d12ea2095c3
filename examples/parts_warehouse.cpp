// The paper's PARTS scenario (sections 3 and 4.1):
//
//  - timestamp-based extraction: `SELECT * FROM parts WHERE
//    last_modified_date > 12/5/99` — dump the result to a file and load it
//    at the warehouse;
//  - the motivating Op-Delta example: `UPDATE status='revised' FROM PARTS
//    WHERE last_modified_date > 11/15/99` "may generate a value delta in
//    the size of several thousands records ... however the SQL statement
//    itself is already an Op-Delta in the size of about 70 bytes".
//
// This example runs both extractions over the same change and prints the
// volumes and the extracted row counts side by side, then also shows the
// timestamp method's blind spot: a delete it cannot observe.
#include <cstdio>

#include "dbutils/ascii_dump.h"
#include "dbutils/loader.h"
#include "engine/database.h"
#include "extract/op_delta.h"
#include "extract/timestamp_extractor.h"
#include "sql/executor.h"
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

// Usage: parts_warehouse [work_dir]  (default /tmp/opdelta_parts_warehouse; wiped first)
int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "/tmp/opdelta_parts_warehouse";
  (void)Env::Default()->RemoveDirAll(root);  // fresh demo dir; best effort

  std::unique_ptr<engine::Database> source;
  DIE_ON_ERROR(engine::Database::Open(root + "/source",
                                      engine::DatabaseOptions(), &source));
  workload::PartsWorkload parts;
  DIE_ON_ERROR(parts.CreateTable(source.get(), "parts"));
  DIE_ON_ERROR(parts.Populate(source.get(), "parts", 20000));
  std::printf("PARTS table: 20000 rows of 100 bytes\n\n");

  // Remember "12/5/99": the watermark before the revision batch runs.
  const Micros watermark = source->clock()->NowMicros();

  // The revision: one statement touching 5000 parts, captured as Op-Delta.
  sql::Executor executor(source.get());
  DIE_ON_ERROR(source->CreateTable("op_log",
                                   extract::OpDeltaLogTableSchema()));
  extract::OpDeltaCapture capture(
      &executor, std::make_shared<extract::OpDeltaDbSink>("op_log"),
      extract::OpDeltaCapture::Options());
  sql::Statement revise = parts.MakeUpdate("parts", 0, 5000, "revised");
  DIE_ON_ERROR(capture.RunTransaction({revise}).status());
  std::printf("ran: %s\n\n", revise.ToSql().c_str());

  // --- timestamp extraction (value delta) -------------------------------
  extract::TimestampExtractor extractor(source.get(), "parts",
                                        "last_modified");
  uint64_t rows = 0;
  DIE_ON_ERROR(
      extractor.ExtractToFile(watermark, root + "/delta.csv", &rows));
  uint64_t csv_bytes = 0;
  DIE_ON_ERROR(Env::Default()->GetFileSize(root + "/delta.csv", &csv_bytes));
  std::printf("timestamp extraction: %llu rows, %llu bytes to ship\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(csv_bytes));

  // --- the same change as Op-Delta --------------------------------------
  std::vector<extract::OpDeltaTxn> txns;
  DIE_ON_ERROR(extract::OpDeltaLogReader::DrainDbTable(
      source.get(), "op_log", workload::PartsWorkload::Schema(), &txns));
  const uint64_t op_bytes = extract::OpDeltaVolumeBytes(
      txns, workload::PartsWorkload::Schema());
  std::printf("Op-Delta:             1 statement, %llu bytes to ship "
              "(paper: 'about 70 bytes')\n",
              static_cast<unsigned long long>(op_bytes));
  std::printf("volume ratio:         %.0fx\n\n",
              static_cast<double>(csv_bytes) / static_cast<double>(op_bytes));

  // --- load the value delta at the warehouse ----------------------------
  std::unique_ptr<engine::Database> warehouse;
  engine::DatabaseOptions wh_options;
  wh_options.auto_timestamp = false;
  DIE_ON_ERROR(
      engine::Database::Open(root + "/warehouse", wh_options, &warehouse));
  DIE_ON_ERROR(parts.CreateTable(warehouse.get(), "parts"));
  dbutils::Loader::Stats load_stats;
  DIE_ON_ERROR(dbutils::Loader::Load(warehouse.get(), "parts",
                                     root + "/delta.csv", &load_stats));
  std::printf("warehouse: DBMS Loader wrote %llu rows into %llu blocks\n\n",
              static_cast<unsigned long long>(load_stats.rows_loaded),
              static_cast<unsigned long long>(load_stats.pages_written));

  // --- the timestamp method's blind spot ---------------------------------
  const Micros watermark2 = source->clock()->NowMicros();
  DIE_ON_ERROR(
      executor.ExecuteSql("DELETE FROM parts WHERE id >= 19000").status());
  Result<extract::DeltaBatch> after_delete =
      extractor.ExtractSince(watermark2);
  DIE_ON_ERROR(after_delete.status());
  std::printf("after deleting 1000 parts, timestamp extraction sees %zu "
              "changed rows — deletes are invisible to it (paper 3.1.1); "
              "trigger, log, or Op-Delta extraction is required to capture "
              "them.\n",
              after_delete->records.size());
  return 0;
}
