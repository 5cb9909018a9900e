#ifndef CEPBENCH_WORKLOADS_H_
#define CEPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cepbench {

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Printed after the unit (where a per-layer value comes from).
  std::string note;
};

struct RunConfig {
  uint64_t seed = 1;
  /// Measured time of one run; inputs are fixed-size per seed, so a run
  /// repeats whole rounds until the time is spent.
  double seconds = 10.0;
  /// Directory for checkpoints and the span file (created if missing).
  std::string work_dir;
};

/// Everything one run prints: metrics, human-readable lines, and the
/// operation tally of the result line.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

/// paper_unkeyed, keyed_sharded, durable_pump.
const std::vector<std::string>& WorkloadNames();

/// Untraced run of one workload: the end-to-end metrics and every
/// output check.
Report RunEndToEnd(const std::string& workload, const RunConfig& config);

/// Traced run: the traced pass of every workload, then the overhead and
/// metrics-off comparisons on `workload`; reports the per-layer metrics
/// and writes the span file into config.work_dir.
Report RunTraced(const std::string& workload, const RunConfig& config);

}  // namespace cepbench

#endif  // CEPBENCH_WORKLOADS_H_
