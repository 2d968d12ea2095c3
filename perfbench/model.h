#ifndef OPDELTA_PERFBENCH_MODEL_H_
#define OPDELTA_PERFBENCH_MODEL_H_

// Seeded traffic and the benchmark's own model of every table it writes.
// Inputs come only from here (never from src/workload), so a change to the
// program cannot change what the benchmark feeds it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "sql/statement.h"

namespace perfbench {

namespace catalog = opdelta::catalog;
namespace sql = opdelta::sql;

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// PARTS-shaped rows of about 100 encoded bytes:
/// id INT64, status STRING, qty INT64, payload STRING, last_modified
/// TIMESTAMP (stamped by the engine, so every check leaves it out).
catalog::Schema PartsSchema();

struct RowData {
  std::string status;
  int64_t qty = 0;
  std::string payload;
};

/// Order-insensitive digest of a table's rows without the timestamp:
/// count, sum of ids and sum of a per-row hash, all wrapping.
struct Digest {
  uint64_t count = 0;
  uint64_t sum_ids = 0;
  uint64_t sum_hash = 0;

  void Add(int64_t id, uint64_t hash);
  void Remove(int64_t id, uint64_t hash);
  bool operator==(const Digest& o) const {
    return count == o.count && sum_ids == o.sum_ids && sum_hash == o.sum_hash;
  }
};

uint64_t RowHash(int64_t id, const RowData& row);

/// Hashes an engine row of PartsSchema(); false if the shape is wrong.
bool EngineRowHash(const catalog::Row& row, int64_t* id, uint64_t* hash,
                   RowData* data);

/// Generates rows and statements from a seed.
class Traffic {
 public:
  explicit Traffic(uint64_t seed) : rng_(seed) {}

  RowData MakeRow();
  catalog::Row ToEngineRow(int64_t id, const RowData& row) const;

  /// The values an UPDATE sets: status and qty (payload left empty).
  RowData MakeUpdateValues();

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

/// The benchmark's model of one table: every row it should hold, plus the
/// running digest.
class TableModel {
 public:
  void Insert(int64_t id, RowData row);
  void Update(int64_t id, const RowData& values);
  void Erase(int64_t id);

  bool Contains(int64_t id) const { return rows_.count(id) != 0; }
  const RowData& Get(int64_t id) const { return rows_.at(id); }
  size_t size() const { return rows_.size(); }
  const Digest& digest() const { return digest_; }

 private:
  std::unordered_map<int64_t, RowData> rows_;
  Digest digest_;
};

// Statement builders over PartsSchema() tables.
sql::Statement InsertRows(const std::string& table,
                          std::vector<catalog::Row> rows);
sql::Statement UpdateKeyRange(const std::string& table, int64_t lo,
                              int64_t hi, const RowData& values);
sql::Statement DeleteKeyRange(const std::string& table, int64_t lo,
                              int64_t hi);

}  // namespace perfbench

#endif  // OPDELTA_PERFBENCH_MODEL_H_
