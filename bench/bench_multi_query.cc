// Multi-query scaling: N identical keyed queries served by ONE
// CepService (one shared ingest path, one routing pass) versus N
// independent KeyedCepRuntime instances each re-ingesting the stream.
// The sweep is queries x worker threads; the interesting column is the
// shared path's cost per query — with the routing pass amortized across
// queries, adding a query should cost engine work only, not another
// full pass over the stream.
//
// The per-query match count is the built-in correctness check: every
// row must report the same value (each query's match set is independent
// of how many neighbors share the service and of the thread count).
//
// The N tenants register identical specs, so the service serves them
// from one engine set (cross-tenant sharing) while the independent side
// runs N. In Release runs with CEPJOIN_BENCH_ASSERT=1 the process exits
// 1 unless the shared/independent speedup is >= 1.0 on every row with
// more than one tenant, at every thread count. (One tenant has nothing
// to share; its row measures the same work twice and stays report-only.)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "api/cep_service.h"
#include "api/keyed_runtime.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SweepResult {
  double wall_seconds = 0.0;
  uint64_t matches_per_query = 0;  // identical across queries by contract
  bool diverged = false;           // any per-query count disagreed
};

SweepResult RunShared(const KeyedWorkload& workload, size_t queries,
                      size_t threads) {
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = threads;
  auto service = CepService::Create(options).value();
  std::vector<CountingSink> sinks(queries);
  for (size_t q = 0; q < queries; ++q) {
    service
        ->Register(
            QuerySpec::Simple(workload.pattern).Keyed().WithSink(&sinks[q]))
        .value();
  }
  auto start = std::chrono::steady_clock::now();
  service->ProcessStream(workload.stream);
  service->Finish();
  SweepResult result;
  result.wall_seconds = Seconds(start);
  result.matches_per_query = sinks[0].count;
  for (const CountingSink& sink : sinks) {
    if (sink.count != result.matches_per_query) {
      std::fprintf(stderr, "ERROR: per-query match counts diverged\n");
      result.diverged = true;
    }
  }
  return result;
}

SweepResult RunIndependent(const KeyedWorkload& workload, size_t queries,
                           size_t threads) {
  std::vector<CountingSink> sinks(queries);
  std::vector<std::unique_ptr<KeyedCepRuntime>> runtimes;
  RuntimeOptions options;
  options.num_threads = threads;
  for (size_t q = 0; q < queries; ++q) {
    runtimes.push_back(std::make_unique<KeyedCepRuntime>(
        workload.pattern, workload.stream, workload.registry.size(), options,
        &sinks[q]));
  }
  auto start = std::chrono::steady_clock::now();
  for (auto& runtime : runtimes) {
    runtime->ProcessStream(workload.stream);
    runtime->Finish();
  }
  SweepResult result;
  result.wall_seconds = Seconds(start);
  result.matches_per_query = sinks[0].count;
  return result;
}

}  // namespace
}  // namespace cepjoin

int main(int argc, char** argv) {
  using namespace cepjoin;
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::PrintHeader("multi-query",
                     "CepService shared ingest vs independent runtimes");

  const int kPartitions = 64;
  const double duration = 20.0 * bench::Scale();
  KeyedWorkload workload = MakeKeyedWorkload(kPartitions, duration, 7);
  std::printf("stream: %zu events, %d partitions, pattern %s\n\n",
              workload.stream.size(), kPartitions,
              workload.pattern.Describe(&workload.registry).c_str());

  bool speedup_ok = true;
  std::printf("%-8s %-8s %-12s %-14s %-12s %-12s %s\n", "queries", "threads",
              "shared s", "indep s", "speedup", "q-ev/s",
              "matches/query");
  for (size_t queries : {1u, 4u, 16u}) {
    for (size_t threads : {1u, 2u, 4u}) {
      SweepResult shared = RunShared(workload, queries, threads);
      SweepResult independent = RunIndependent(workload, queries, threads);
      if (shared.diverged ||
          shared.matches_per_query != independent.matches_per_query) {
        std::fprintf(stderr,
                     "ERROR: shared/independent match counts diverged\n");
        return 1;
      }
      // Aggregate query-events per second: every query logically
      // consumes the whole stream, so the shared path serves
      // size * queries query-events in one pass.
      double query_event_rate =
          shared.wall_seconds > 0
              ? static_cast<double>(workload.stream.size()) *
                    static_cast<double>(queries) / shared.wall_seconds
              : 0.0;
      double speedup = shared.wall_seconds > 0
                           ? independent.wall_seconds / shared.wall_seconds
                           : 0.0;
      if (queries > 1 && speedup < 1.0) {
        std::fprintf(stderr,
                     "SHARING REGRESSION: %zu identical tenants on %zu "
                     "threads run at %.2fx N independent runtimes (gate: "
                     ">= 1.0)\n",
                     queries, threads, speedup);
        speedup_ok = false;
      }
      std::printf("%-8zu %-8zu %-12.3f %-14.3f %-12.2f %-12.0f %llu\n",
                  queries, threads, shared.wall_seconds,
                  independent.wall_seconds, speedup, query_event_rate,
                  static_cast<unsigned long long>(shared.matches_per_query));
      const std::string point = "q" + std::to_string(queries) + "_t" +
                                std::to_string(threads);
      bench::RecordJson("multi_query", "shared_wall_" + point,
                        shared.wall_seconds, "s");
      bench::RecordJson("multi_query", "independent_wall_" + point,
                        independent.wall_seconds, "s");
      bench::RecordJson("multi_query", "speedup_" + point, speedup, "x");
      bench::RecordJson("multi_query", "query_events_per_s_" + point,
                        query_event_rate, "ev/s");
      bench::RecordJson("multi_query", "matches_per_query_" + point,
                        static_cast<double>(shared.matches_per_query),
                        "matches");
    }
  }
  std::printf(
      "\n(speedup = independent wall / shared wall at equal query and "
      "thread counts; matches/query must be identical on every row)\n");
  if (!bench::WriteBenchJson(json_path)) return 1;
#ifdef NDEBUG
  const char* assert_env = std::getenv("CEPJOIN_BENCH_ASSERT");
  if (!speedup_ok && assert_env != nullptr && assert_env[0] == '1') return 1;
#else
  (void)speedup_ok;  // report-only outside Release
#endif
  return 0;
}
