// Durability bench: what a checkpoint costs and what it does NOT cost.
//
//   capture MB/s    — CepService::CaptureCheckpointBytes over a service
//                     with hot keyed+unkeyed state (the ingest-thread
//                     stall is exactly this serialization);
//   restore MB/s    — RestoreFrom the published checkpoint into a fresh
//                     service (crash-recovery time per byte);
//   stall p99       — per-cut capture stall across a pump loop that
//                     checkpoints every chunk;
//   delta stall     — the same per-cut stall on delta CSV input (two
//                     attached StreamingCsvSources, ~10% of rows retract
//                     an earlier row), with the attached-source
//                     retraction ledger's share of the payload: the
//                     ledger holds every unretracted insert, so its
//                     encoding grows with the stream, not the window;
//   disabled ratio  — pump throughput with a CheckpointCoordinator
//                     attached but policy-disabled (its per-chunk
//                     MaybeCheckpoint always declines) vs a plain pump.
//                     Durability compiled in but switched off must keep
//                     >= 98% of the plain rate; with
//                     CEPJOIN_BENCH_ASSERT=1 (Release) a miss fails the
//                     process after re-measure passes, same protocol as
//                     bench_retraction.
//
// Usage: bench_checkpoint [--json <path>]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/cep_service.h"
#include "common/rng.h"
#include "durable/checkpoint_coordinator.h"
#include "durable/snapshot_io.h"
#include "event/retraction_ledger.h"
#include "event/stream_source.h"
#include "event/streaming_csv_source.h"
#include "harness.h"
#include "obs/pipeline_metrics.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kPumpChunk = 512;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using Workload = KeyedWorkload;

Workload MakeWorkload() {
  double scale = std::max(0.2, bench::Scale());
  return MakeKeyedWorkload(/*num_partitions=*/8, /*duration=*/8.0 * scale,
                           /*seed=*/41);
}

struct Session {
  std::unique_ptr<CepService> service;
  CountingSink keyed_sink;
  CountingSink unkeyed_sink;
};

Session MakeSession(const Workload& w) {
  Session s;
  ServiceOptions options;
  options.history = &w.stream;
  options.num_types = w.registry.size();
  options.num_threads = 1;  // stall/throughput on one thread, no queues
  s.service = CepService::Create(options).value();
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(w.pattern)
                                      .WithName("keyed")
                                      .Keyed()
                                      .WithSink(&s.keyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(w.pattern)
                                      .WithName("unkeyed")
                                      .WithSink(&s.unkeyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service->AttachSource(
      std::make_unique<EventStreamSource>(&w.stream)));
  return s;
}

/// Pumps everything, timing only the pump. Returns events/second.
double TimedPump(Session* s) {
  Clock::time_point start = Clock::now();
  uint64_t fed = 0;
  while (true) {
    auto chunk = s->service->PumpAttachedSources(kPumpChunk);
    CEPJOIN_CHECK_OK(chunk.status());
    if (chunk.value() == 0) break;
    fed += chunk.value();
  }
  return static_cast<double>(fed) / Seconds(start);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Share of inserts later retracted: 0.11 of inserts is about 10% of
/// all rows.
constexpr double kDeltaRetractShare = 0.11;
/// Cuts per delta run, evenly spaced over the rows.
constexpr size_t kDeltaCuts = 32;

/// The delta row's input: a keyed stream (256 partitions keep the
/// keyed query's match count small, so capture, not evaluation, is what
/// grows) rendered as two CSV texts split by partition parity. A
/// retraction follows its insert by at most half the pattern window, in
/// the same text.
struct DeltaInput {
  Workload base;
  std::vector<std::string> csv;
  size_t rows = 0;
};

DeltaInput MakeDeltaInput() {
  double scale = std::max(0.2, bench::Scale());
  DeltaInput in{MakeKeyedWorkload(/*num_partitions=*/256,
                                  /*duration=*/120.0 * scale, /*seed=*/43),
                {},
                0};
  Rng rng(44);
  struct Row {
    double ts;
    const Event* insert;
    bool retract;
  };
  std::vector<Row> rows;
  for (const EventPtr& e : in.base.stream.events()) {
    rows.push_back({e->ts, e.get(), false});
    if (rng.UniformReal(0.0, 1.0) < kDeltaRetractShare) {
      const double delay =
          rng.UniformReal(0.0005, in.base.pattern.window() / 2);
      rows.push_back({e->ts + delay, e.get(), true});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ts < b.ts; });
  in.csv.assign(2, "type,ts,partition,v,polarity,retract_ts\n");
  char line[160];
  for (const Row& row : rows) {
    const Event& e = *row.insert;
    const std::string& type = in.base.registry.Info(e.type).name;
    if (row.retract) {
      std::snprintf(line, sizeof(line), "%s,%.6f,%u,0,-1,%.6f\n",
                    type.c_str(), row.ts, e.partition, e.ts);
    } else {
      std::snprintf(line, sizeof(line), "%s,%.6f,%u,%.6f,+1,\n",
                    type.c_str(), row.ts, e.partition, e.attrs[0]);
    }
    in.csv[e.partition % 2] += line;
  }
  in.rows = rows.size();
  return in;
}

struct DeltaStalls {
  std::vector<double> stalls;
  size_t payload_bytes = 0;  // the last cut's
  size_t ledger_bytes = 0;   // the ledger section of the last cut
};

/// Pumps the delta input through one keyed delta query, capturing
/// kDeltaCuts checkpoints at even row intervals.
DeltaStalls RunDeltaStalls(const DeltaInput& in) {
  CountingSink sink;
  ServiceOptions options;
  options.history = &in.base.stream;
  options.num_types = in.base.registry.size();
  options.num_threads = 1;
  std::unique_ptr<CepService> service = CepService::Create(options).value();
  CEPJOIN_CHECK_OK(service
                       ->Register(QuerySpec::Simple(
                                      in.base.pattern.WithDeltaInput())
                                      .WithName("delta")
                                      .Keyed()
                                      .WithSink(&sink))
                       .status());
  for (const std::string& text : in.csv) {
    CEPJOIN_CHECK_OK(service->AttachSource(
        std::make_unique<StringCsvSource>(text, &in.base.registry)));
  }
  DeltaStalls out;
  const size_t cut_every = std::max<size_t>(1, in.rows / kDeltaCuts);
  size_t fed = 0;
  size_t next_cut = cut_every;
  while (true) {
    auto chunk = service->PumpAttachedSources(
        std::min(kPumpChunk, next_cut - fed));
    CEPJOIN_CHECK_OK(chunk.status());
    if (chunk.value() == 0) break;
    fed += chunk.value();
    if (fed < next_cut) continue;
    next_cut += cut_every;
    std::string cut;
    Clock::time_point start = Clock::now();
    CEPJOIN_CHECK_OK(service->CaptureCheckpointBytes(&cut));
    out.stalls.push_back(Seconds(start));
    out.payload_bytes = cut.size();
    const double live = service->MetricsSnapshot().Value(
        metric_names::kIngestLedgerLiveEntries);
    out.ledger_bytes =
        sizeof(uint64_t) +
        RetractionLedger::kEntryBytes * static_cast<size_t>(live);
  }
  return out;
}

bool RunBench(const std::string& json_path) {
  Workload w = MakeWorkload();
  const std::string dir =
      "/tmp/cepjoin_bench_checkpoint_" + std::to_string(::getpid());
  bool ok = true;

  // ---- capture / restore throughput ---------------------------------
  Session hot = MakeSession(w);
  {
    auto fed = hot.service->PumpAttachedSources(w.stream.size() / 2);
    CEPJOIN_CHECK_OK(fed.status());
  }
  std::string payload;
  double best_capture_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    Clock::time_point start = Clock::now();
    CEPJOIN_CHECK_OK(hot.service->CaptureCheckpointBytes(&payload));
    best_capture_s = std::min(best_capture_s, Seconds(start));
  }
  const double mb = static_cast<double>(payload.size()) / (1024.0 * 1024.0);
  const double capture_mbps = mb / best_capture_s;
  CEPJOIN_CHECK_OK(hot.service->CheckpointTo(dir));

  double best_restore_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    Session cold = MakeSession(w);
    Clock::time_point start = Clock::now();
    CEPJOIN_CHECK_OK(cold.service->RestoreFrom(dir).status());
    best_restore_s = std::min(best_restore_s, Seconds(start));
  }
  const double restore_mbps = mb / best_restore_s;

  // ---- checkpoint stall distribution --------------------------------
  std::vector<double> stalls;
  {
    Session s = MakeSession(w);
    while (true) {
      auto chunk = s.service->PumpAttachedSources(kPumpChunk);
      CEPJOIN_CHECK_OK(chunk.status());
      if (chunk.value() == 0) break;
      Clock::time_point start = Clock::now();
      std::string cut;
      CEPJOIN_CHECK_OK(s.service->CaptureCheckpointBytes(&cut));
      stalls.push_back(Seconds(start));
    }
  }
  const double stall_p99_ms = Percentile(stalls, 0.99) * 1e3;
  const double stall_p50_ms = Percentile(stalls, 0.50) * 1e3;

  // ---- disabled-overhead self-check ---------------------------------
  // Paired rounds (plain, then coordinator-attached-but-declining) with
  // a median-of-pair-ratios score, the bench_retraction protocol: pair
  // locality cancels load drift, the median discards descheduled pairs.
  auto plain_round = [&] {
    Session s = MakeSession(w);
    return TimedPump(&s);
  };
  auto disabled_round = [&] {
    Session s = MakeSession(w);
    CheckpointOptions copts;
    copts.dir = dir + "_disabled";
    // A policy floor no finite watermark reaches: every MaybeCheckpoint
    // is a declined policy check, the disabled steady state.
    copts.min_watermark_advance = std::numeric_limits<double>::infinity();
    CheckpointCoordinator coordinator(s.service.get(), copts);
    CEPJOIN_CHECK_OK(coordinator.Start());
    Clock::time_point start = Clock::now();
    uint64_t fed = 0;
    double watermark = 0.0;
    while (true) {
      auto chunk = s.service->PumpAttachedSources(kPumpChunk);
      CEPJOIN_CHECK_OK(chunk.status());
      if (chunk.value() == 0) break;
      fed += chunk.value();
      watermark += 1.0;
      auto cut = coordinator.MaybeCheckpoint(watermark);
      CEPJOIN_CHECK_OK(cut.status());
    }
    double rate = static_cast<double>(fed) / Seconds(start);
    CEPJOIN_CHECK_OK(coordinator.Stop());
    return rate;
  };

  auto measure_ratio = [&](int rounds) {
    std::vector<double> ratios;
    plain_round();  // warm-up pair
    disabled_round();
    for (int i = 0; i < rounds; ++i) {
      double plain = plain_round();
      double disabled = disabled_round();
      ratios.push_back(disabled / plain);
    }
    return ratios;
  };
  std::vector<double> ratios = measure_ratio(6);
  const double plain_rate = plain_round();
  double disabled_ratio = Median(ratios);
  for (int attempt = 0; attempt < 2 && disabled_ratio < 0.98; ++attempt) {
    disabled_ratio = Median(measure_ratio(12));
  }

  // ---- checkpoint stall on delta input ------------------------------
  // Measured after the overhead gate, so the gate's rounds run in a
  // process this row has not yet touched.
  const DeltaInput delta = MakeDeltaInput();
  const DeltaStalls delta_run = RunDeltaStalls(delta);
  const double delta_p99_ms = Percentile(delta_run.stalls, 0.99) * 1e3;
  const double delta_p50_ms = Percentile(delta_run.stalls, 0.50) * 1e3;

  std::printf(
      "checkpoint bench: %zu-event keyed+unkeyed delta-free workload, "
      "payload %.2f MB\n\n",
      w.stream.size(), mb);
  std::printf("  capture            %10.1f MB/s\n", capture_mbps);
  std::printf("  restore            %10.1f MB/s\n", restore_mbps);
  std::printf("  stall p50 / p99    %7.3f / %.3f ms (%zu cuts)\n",
              stall_p50_ms, stall_p99_ms, stalls.size());
  std::printf("  delta stall p50/p99 %6.3f / %.3f ms (%zu cuts, %zu rows)\n",
              delta_p50_ms, delta_p99_ms, delta_run.stalls.size(),
              delta.rows);
  std::printf("  delta ledger       %10zu B of a %zu B payload\n",
              delta_run.ledger_bytes, delta_run.payload_bytes);
  std::printf("  plain pump         %10.3g ev/s\n", plain_rate);
  std::printf("  disabled ratio     %10.3f (budget >= 0.98)\n",
              disabled_ratio);

  bench::RecordJson("checkpoint", "capture_mb_per_sec", capture_mbps, "MB/s");
  bench::RecordJson("checkpoint", "restore_mb_per_sec", restore_mbps, "MB/s");
  bench::RecordJson("checkpoint", "payload_bytes",
                    static_cast<double>(payload.size()), "bytes");
  bench::RecordJson("checkpoint", "stall_p99_ms", stall_p99_ms, "ms");
  bench::RecordJson("checkpoint", "stall_p50_ms", stall_p50_ms, "ms");
  bench::RecordJson("checkpoint", "delta_stall_p50_ms", delta_p50_ms, "ms");
  bench::RecordJson("checkpoint", "delta_stall_p99_ms", delta_p99_ms, "ms");
  bench::RecordJson("checkpoint", "delta_ledger_bytes",
                    static_cast<double>(delta_run.ledger_bytes), "bytes");
  bench::RecordJson("checkpoint", "disabled_overhead_ratio", disabled_ratio,
                    "x");

  if (disabled_ratio < 0.98) {
    std::fprintf(stderr,
                 "CHECKPOINT OVERHEAD REGRESSION: pump throughput with "
                 "checkpointing attached-but-disabled is %.1f%% of the "
                 "plain pump (budget: >= 98%%)\n",
                 100.0 * disabled_ratio);
#ifdef NDEBUG
    const char* assert_env = std::getenv("CEPJOIN_BENCH_ASSERT");
    if (assert_env != nullptr && assert_env[0] == '1') ok = false;
#endif
  }
  if (!bench::WriteBenchJson(json_path)) ok = false;
  return ok;
}

}  // namespace
}  // namespace cepjoin

int main(int argc, char** argv) {
  return cepjoin::RunBench(cepjoin::bench::JsonPathFromArgs(argc, argv)) ? 0
                                                                         : 1;
}
