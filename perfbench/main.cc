// opdelta_perf: runs one benchmark workload and prints its metrics.
//
//   opdelta_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --data-dir <dir>
//
// Human-readable lines first (medians with p99 and sample counts, and the
// operations attempted and failed), then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with tracing on and reports the per-layer metrics instead.
// Exit status: 0 with a result, 1 on a usage error, 2 when the run could
// not produce a result.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "opdelta_perf: %s\nusage: opdelta_perf --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --data-dir <dir>\n",
               why);
  return 1;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("metric %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--data-dir") {
      config.data_dir = value;
      have_dir = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload || !have_dir) return Usage("--workload and --data-dir");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  // Pin glibc's mmap threshold (by default it grows after the first large
  // free): every table's 8 MB buffer pool is then mapped on open and
  // returned on drop, so peak RSS does not depend on the order in which
  // the run created and dropped its side tables. Smaller allocations,
  // statement texts included, stay on the heap as before.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);

  // The timing Env goes in before any file is opened: components bind
  // Env::Default() when they open their files.
  perfbench::TimingEnv timing_env(opdelta::Env::Default());
  if (config.trace) opdelta::Env::SetDefault(&timing_env);

  perfbench::RunResult result;
  std::string error;
  const bool ok = perfbench::RunWorkload(config, &result, &error);
  (void)opdelta::Env::Default()->RemoveDirAll(config.data_dir);
  if (config.trace) opdelta::Env::SetDefault(nullptr);
  if (!ok) {
    std::fprintf(stderr, "opdelta_perf: %s\n", error.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::OpCount& op : result.ops) {
    std::printf("ops %-16s attempted %llu failed %llu\n", op.kind.c_str(),
                static_cast<unsigned long long>(op.attempted),
                static_cast<unsigned long long>(op.failed));
  }
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // Both sets print; the JSON carries the one the mode asks for.
  PrintMetrics(result.end_to_end);
  PrintMetrics(result.per_layer);

  const std::vector<perfbench::Metric>& chosen =
      config.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.Attempted());
  json += ", \"failed\": " + std::to_string(result.Failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + chosen[i].name + "\": {\"value\": " +
            JsonNumber(chosen[i].value) + ", \"unit\": \"" + chosen[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
