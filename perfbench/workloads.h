#ifndef OPDELTA_PERFBENCH_WORKLOADS_H_
#define OPDELTA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // scratch space for the databases, removed after
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct OpCount {
  std::string kind;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  // correctness findings
  std::vector<OpCount> ops;
  std::vector<Metric> end_to_end;     // always measured
  std::vector<Metric> per_layer;      // traced runs only
  std::vector<std::string> report;    // human-readable lines

  uint64_t Attempted() const;
  uint64_t Failed() const;
};

/// Runs one workload. Returns false, with `error` set, on a set-up or
/// harness error: the run produced no result.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace perfbench

#endif  // OPDELTA_PERFBENCH_WORKLOADS_H_
