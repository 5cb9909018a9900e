// The CepService benchmark: drives one workload (or all three) through
// CepService and prints every metric with its unit, then one JSON result
// line. See README.md.
//
//   cepbench --workload <paper_unkeyed|keyed_sharded|durable_pump|all>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: cepbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir = ".";
  unsigned long long seed = 0;
  unsigned long long seconds = 10;
  unsigned long long trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      have_seed = ParseUnsigned(argv[++i], &seed);
      if (!have_seed) return Usage(), 2;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      if (!ParseUnsigned(argv[++i], &seconds) || seconds == 0) {
        return Usage(), 2;
      }
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      if (!ParseUnsigned(argv[++i], &trace) || trace > 1) return Usage(), 2;
    } else if (std::strcmp(argv[i], "--work-dir") == 0 && has_value) {
      work_dir = argv[++i];
    } else {
      return Usage(), 2;
    }
  }
  std::vector<std::string> workloads;
  if (workload == "all") {
    workloads = cepbench::WorkloadNames();
  } else {
    for (const std::string& name : cepbench::WorkloadNames()) {
      if (name == workload) workloads.push_back(name);
    }
  }
  if (workloads.empty() || !have_seed) return Usage(), 2;

  cepbench::RunConfig config;
  config.seed = seed;
  config.seconds = static_cast<double>(seconds);
  config.work_dir = work_dir;

  bool correct = true;
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
  std::string metrics_json;
  for (const std::string& name : workloads) {
    const cepbench::Report report =
        trace == 1 ? cepbench::RunTraced(name, config)
                   : cepbench::RunEndToEnd(name, config);
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    for (const cepbench::Metric& m : report.metrics) {
      std::printf("  %-30s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
      const std::string key =
          workloads.size() == 1 ? m.name : name + "." + m.name;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (!metrics_json.empty()) metrics_json += ", ";
      metrics_json += "\"" + key + "\": {\"value\": " + value +
                      ", \"unit\": \"" + m.unit + "\"}";
      if (!std::isfinite(m.value)) {
        correct = false;
        ++failed;
      }
    }
    correct = correct && report.correct && report.failed == 0;
    attempted += report.attempted;
    failed += report.failed;
  }
  if (attempted == 0) attempted = 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
