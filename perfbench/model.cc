#include "model.h"

#include <utility>

namespace perfbench {

using opdelta::catalog::Column;
using opdelta::catalog::Row;
using opdelta::catalog::Value;
using opdelta::catalog::ValueType;
using opdelta::engine::CompareOp;
using opdelta::engine::Predicate;

namespace {

constexpr const char* kStatuses[] = {"open", "shipped", "sold", "revised",
                                     "held", "returned", "repair", "retired"};
constexpr size_t kPayloadBytes = 56;  // brings the encoded row to ~100 B

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

opdelta::catalog::Schema PartsSchema() {
  return opdelta::catalog::Schema({Column{"id", ValueType::kInt64},
                                   Column{"status", ValueType::kString},
                                   Column{"qty", ValueType::kInt64},
                                   Column{"payload", ValueType::kString},
                                   Column{"last_modified",
                                          ValueType::kTimestamp}});
}

void Digest::Add(int64_t id, uint64_t hash) {
  count++;
  sum_ids += static_cast<uint64_t>(id);
  sum_hash += hash;
}

void Digest::Remove(int64_t id, uint64_t hash) {
  count--;
  sum_ids -= static_cast<uint64_t>(id);
  sum_hash -= hash;
}

uint64_t RowHash(int64_t id, const RowData& row) {
  uint64_t h = 14695981039346656037ull;
  h = Fnv(h, &id, sizeof(id));
  h = Fnv(h, row.status.data(), row.status.size());
  h = Fnv(h, "|", 1);
  h = Fnv(h, &row.qty, sizeof(row.qty));
  h = Fnv(h, row.payload.data(), row.payload.size());
  return h;
}

bool EngineRowHash(const Row& row, int64_t* id, uint64_t* hash,
                   RowData* data) {
  if (row.size() != 5 || row[0].type() != ValueType::kInt64 ||
      row[1].type() != ValueType::kString ||
      row[2].type() != ValueType::kInt64 ||
      row[3].type() != ValueType::kString) {
    return false;
  }
  *id = row[0].AsInt64();
  data->status = row[1].AsString();
  data->qty = row[2].AsInt64();
  data->payload = row[3].AsString();
  *hash = RowHash(*id, *data);
  return true;
}

RowData Traffic::MakeRow() {
  RowData row;
  row.status = kStatuses[rng_.Uniform(8)];
  row.qty = static_cast<int64_t>(rng_.Uniform(1000));
  row.payload.resize(kPayloadBytes);
  for (char& c : row.payload) c = static_cast<char>('a' + rng_.Uniform(26));
  return row;
}

Row Traffic::ToEngineRow(int64_t id, const RowData& row) const {
  return Row{Value::Int64(id), Value::String(row.status),
             Value::Int64(row.qty), Value::String(row.payload),
             Value::Timestamp(0)};
}

RowData Traffic::MakeUpdateValues() {
  RowData values;
  values.status = kStatuses[rng_.Uniform(8)];
  values.qty = static_cast<int64_t>(rng_.Uniform(1000));
  return values;
}

void TableModel::Insert(int64_t id, RowData row) {
  digest_.Add(id, RowHash(id, row));
  rows_[id] = std::move(row);
}

void TableModel::Update(int64_t id, const RowData& values) {
  RowData& row = rows_.at(id);
  digest_.Remove(id, RowHash(id, row));
  row.status = values.status;
  row.qty = values.qty;
  digest_.Add(id, RowHash(id, row));
}

void TableModel::Erase(int64_t id) {
  auto it = rows_.find(id);
  digest_.Remove(id, RowHash(id, it->second));
  rows_.erase(it);
}

namespace {

Predicate KeyRange(int64_t lo, int64_t hi) {
  if (hi == lo + 1) return Predicate::Where("id", CompareOp::kEq,
                                            Value::Int64(lo));
  return Predicate::Where("id", CompareOp::kGe, Value::Int64(lo))
      .And("id", CompareOp::kLt, Value::Int64(hi));
}

}  // namespace

opdelta::sql::Statement InsertRows(const std::string& table,
                                   std::vector<Row> rows) {
  opdelta::sql::InsertStmt stmt;
  stmt.table = table;
  stmt.rows = std::move(rows);
  return opdelta::sql::Statement(std::move(stmt));
}

opdelta::sql::Statement UpdateKeyRange(const std::string& table, int64_t lo,
                                       int64_t hi, const RowData& values) {
  opdelta::sql::UpdateStmt stmt;
  stmt.table = table;
  stmt.sets = {{"status", Value::String(values.status)},
               {"qty", Value::Int64(values.qty)}};
  stmt.where = KeyRange(lo, hi);
  return opdelta::sql::Statement(std::move(stmt));
}

opdelta::sql::Statement DeleteKeyRange(const std::string& table, int64_t lo,
                                       int64_t hi) {
  opdelta::sql::DeleteStmt stmt;
  stmt.table = table;
  stmt.where = KeyRange(lo, hi);
  return opdelta::sql::Statement(std::move(stmt));
}

}  // namespace perfbench
