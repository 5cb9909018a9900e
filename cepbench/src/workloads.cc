#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/cep_service.h"
#include "bench_util.h"
#include "common/rng.h"
#include "durable/checkpoint_coordinator.h"
#include "engine/engine_factory.h"
#include "event/streaming_csv_source.h"
#include "obs/pipeline_metrics.h"
#include "pattern/nested.h"
#include "stats/collector.h"
#include "workload/pattern_generator.h"
#include "workload/stock_generator.h"

namespace cepbench {
namespace {

using cepjoin::CepService;
using cepjoin::CheckpointCoordinator;
using cepjoin::CheckpointOptions;
using cepjoin::CmpOp;
using cepjoin::CostFunction;
using cepjoin::EngineCounters;
using cepjoin::EnginePlan;
using cepjoin::Event;
using cepjoin::EventPtr;
using cepjoin::EventStream;
using cepjoin::EventTypeRegistry;
using cepjoin::HistogramData;
using cepjoin::Match;
using cepjoin::MatchSink;
using cepjoin::MetricPoint;
using cepjoin::NestedPattern;
using cepjoin::OperatorKind;
using cepjoin::PatternBuilder;
using cepjoin::PatternFamily;
using cepjoin::PatternNode;
using cepjoin::QueryHandle;
using cepjoin::QuerySpec;
using cepjoin::Rng;
using cepjoin::ServiceOptions;
using cepjoin::SimplePattern;
using cepjoin::StatsCollector;
using cepjoin::Status;
using cepjoin::StreamSource;
using cepjoin::StringCsvSource;
using cepjoin::TypeId;
namespace metric_names = cepjoin::metric_names;

// ---- constants ------------------------------------------------------------
//
// Inputs are a fixed size per seed (the recorded default-seed digests
// depend on it); a run repeats whole rounds until its time is spent.

/// The seed whose digests are recorded in kExpectedDigests.
constexpr uint64_t kDefaultSeed = 1;
/// ServiceOptions::batch_size, and the most events one OnBatch carries.
constexpr size_t kBatchSize = 256;

// paper_unkeyed: one fixed stock universe (symbol rates and drifts come
// from kStockUniverseSeed), so every seed runs the same pattern
// workload; the seed picks which stretch of that universe's stream is
// fed live. The history is the stretch before every live slice.
constexpr uint64_t kStockUniverseSeed = 2024;
constexpr double kStockHistorySeconds = 120.0;
constexpr double kStockLiveSeconds = 1200.0;
constexpr int kStockSlices = 16;
constexpr double kStockSliceStep = 60.0;
constexpr int kPatternSize = 4;

// keyed_sharded and durable_pump share the keyed A/B/C generator:
// Zipf-skewed partition keys over kPartitions partitions, and the
// per-partition rare-type skew of KeyedEventSource.
constexpr int kPartitions = 256;
constexpr double kZipfExponent = 1.0;
constexpr size_t kKeyedEvents = 200000;
constexpr size_t kKeyedHistoryEvents = 40000;
constexpr double kKeyedWindow = 0.1;

constexpr size_t kDurableInserts = 100000;
/// Share of inserts that are later retracted: 0.11 of inserts is about
/// 10% of all rows.
constexpr double kDurableRetractShare = 0.11;
constexpr double kDurableWindow = 0.2;
/// a.v < c.v + kDurableOffset keeps about one A-C pair in eight.
constexpr double kDurableOffset = -1.0;
constexpr size_t kPumpChunk = 512;
/// Closed-loop rounds are timed in chunks of this many events; see
/// BestSumOfChunks.
constexpr size_t kChunkEvents = 4096;
/// Checkpoint cadence: this many cuts over the live stream's event time.
constexpr int kDurableCuts = 16;

// Open-loop offered rates (events/s), set once when the benchmark was
// written, at a fifth to a half of the closed-loop median round
// throughput measured then (4-vCPU x86 VM, Release build), so that the
// host's slow phases do not turn the open loop into a backlog.
// Constants on purpose: the rate must not follow the code under test.
constexpr double kPaperRate = 50000.0;
constexpr double kKeyedRate = 150000.0;
constexpr double kDurableRate = 60000.0;
// Open-loop rounds of the inline-fed workloads feed only this prefix of
// the input (0.4-0.8 s at the rates above), so that a run holds many of
// them: a match's best latency over the rounds then has many chances to
// miss the host's slow phases, which last seconds. durable_pump feeds
// all rows: its p99 is the checkpoint-capture stall, and a prefix would
// hold too few cuts to measure it.
constexpr size_t kPaperOpenEvents = 40000;
constexpr size_t kKeyedOpenEvents = 60000;

// Workload-shape guard: the most matches per input event (summed over
// a workload's queries) each workload may emit; see README.md.
constexpr double kPaperMatchesPerEventCeiling = 2.0;
constexpr double kKeyedMatchesPerEventCeiling = 2.0;
constexpr double kDurableMatchesPerEventCeiling = 1.0;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 29);
}

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- one session ----------------------------------------------------------

struct RoundOptions {
  bool open_loop = false;
  bool metrics = true;
  /// keyed_sharded: shard workers (0 = the workload's default).
  size_t num_threads = 0;
  Tracer* tracer = nullptr;
  /// The designated traced round: sample queues, run the layer probes.
  bool probes = false;
  /// durable_pump: restore the last checkpoint into a fresh service and
  /// replay the tail.
  bool restore_check = false;
};

/// What one session (set-up, feed, Finish) produced.
struct Round {
  double setup_s = 0.0;
  /// First feed call until Finish() returns.
  double run_s = 0.0;
  uint64_t events = 0;
  std::vector<Digest> digests;  // per registered query
  EngineCounters counters;      // summed over queries
  uint64_t peak_state_bytes = 0;
  /// Closed loop: wall time of each kChunkEvents-event stretch of the
  /// feed, the last entry ending when Finish() returns.
  std::vector<double> chunk_s;
  /// Open loop: one latency per match, in delivery order.
  std::vector<double> latency_us;
  std::vector<double> lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Per-layer values read during the round, by metric name.
  std::map<std::string, double> layer;

  double throughput() const {
    return run_s > 0.0 ? static_cast<double>(events) / run_s : 0.0;
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  void CheckStatus(const Status& status, const std::string& what) {
    Check(status.ok(), what + ": " + status.ToString());
  }
  /// Ends a round whose set-up failed: none of its events is evaluated.
  Round Abandon(uint64_t input_events) {
    attempted += input_events;
    failed += input_events;
    return std::move(*this);
  }
};

/// Splits a closed-loop feed into chunk_s entries.
class ChunkTimer {
 public:
  explicit ChunkTimer(std::vector<double>* out)
      : out_(out), start_(Clock::now()) {}
  /// Call after each feed call with the events fed so far.
  void Fed(size_t events) {
    if (events < next_) return;
    Cut();
    next_ = (events / kChunkEvents + 1) * kChunkEvents;
  }
  void Cut() {
    const Clock::time_point now = Clock::now();
    out_->push_back(SecondsBetween(start_, now));
    start_ = now;
  }

 private:
  std::vector<double>* out_;
  Clock::time_point start_;
  size_t next_ = kChunkEvents;
};

/// Maps a match's last timestamp to the due time of that event under the
/// open-loop schedule, and records the callback's delay from it.
class LatencyProbe {
 public:
  LatencyProbe(const OpenLoopSchedule* schedule,
               const std::vector<double>* feed_ts)
      : schedule_(schedule), feed_ts_(feed_ts) {}

  void Record(const Match& match) {
    const Clock::time_point now = Clock::now();
    auto it = std::upper_bound(feed_ts_->begin(), feed_ts_->end(),
                               match.last_ts);
    size_t index = it == feed_ts_->begin()
                       ? 0
                       : static_cast<size_t>(it - feed_ts_->begin()) - 1;
    samples_us.push_back(schedule_->LatenessSeconds(index, now) * 1e6);
  }

  std::vector<double> samples_us;

 private:
  const OpenLoopSchedule* schedule_;
  const std::vector<double>* feed_ts_;
};

/// A query's sink: digest, optional open-loop latency, and (traced) the
/// time spent in the callback summed into the enclosing span.
class BenchSink : public MatchSink {
 public:
  BenchSink(Tracer* tracer, LatencyProbe* latency,
            std::vector<double>* detection_us = nullptr)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        latency_(latency),
        detection_us_(detection_us) {}

  void OnMatch(const Match& match) override {
    if (tracer_ == nullptr) {
      Record(match);
      return;
    }
    const int64_t start = NowNs();
    Record(match);
    tracer_->AddSummed("bench.OnMatch", NowNs() - start);
  }

  Digest digest;

 private:
  void Record(const Match& match) {
    digest.Add(match);
    if (match.IsRevocation()) return;
    if (latency_ != nullptr) latency_->Record(match);
    if (detection_us_ != nullptr) {
      detection_us_->push_back(match.latency_seconds * 1e6);
    }
  }

  Tracer* tracer_;
  LatencyProbe* latency_;
  std::vector<double>* detection_us_;
};

/// Times StreamSource::Next into the enclosing span (traced runs only).
class TimedSource : public StreamSource {
 public:
  TimedSource(std::unique_ptr<StreamSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Next(Event* out) override {
    const int64_t start = NowNs();
    const bool more = inner_->Next(out);
    tracer_->AddSummed("event.StreamingCsvSource.Next", NowNs() - start);
    return more;
  }
  bool ok() const override { return inner_->ok(); }
  std::string error() const override { return inner_->error(); }
  bool declares_retractions() const override {
    return inner_->declares_retractions();
  }
  cepjoin::StatusCode error_code() const override {
    return inner_->error_code();
  }
  bool supports_position() const override {
    return inner_->supports_position();
  }
  uint64_t position() const override { return inner_->position(); }
  Status SeekTo(uint64_t position) override {
    return inner_->SeekTo(position);
  }

 private:
  std::unique_ptr<StreamSource> inner_;
  Tracer* tracer_;
};

void MergeHistogram(HistogramData* into, const HistogramData& h) {
  if (h.counts.empty()) return;
  if (into->counts.empty()) {
    *into = h;
    return;
  }
  if (into->counts.size() != h.counts.size()) return;
  for (size_t i = 0; i < h.counts.size(); ++i) into->counts[i] += h.counts[i];
  into->count += h.count;
  into->sum += h.sum;
}

std::vector<double> PointValues(const cepjoin::MetricsSnapshot& snapshot,
                                const std::string& name) {
  std::vector<double> values;
  for (const MetricPoint& p : snapshot.points) {
    if (p.name == name) values.push_back(p.value);
  }
  return values;
}

HistogramData MergedHistogram(const cepjoin::MetricsSnapshot& snapshot,
                              const std::string& name) {
  HistogramData merged;
  for (const MetricPoint& p : snapshot.points) {
    if (p.name == name) MergeHistogram(&merged, p.histogram);
  }
  return merged;
}

/// Spin-waits until at least one more event is due; returns the due
/// count. The loop reads the clock only: a PAUSE instruction here would
/// let a hypervisor deschedule the spinning vCPU for milliseconds.
size_t WaitForDue(const OpenLoopSchedule& schedule, size_t fed,
                  Clock::time_point* now) {
  while (true) {
    *now = Clock::now();
    const size_t due = schedule.DueCount(*now);
    if (due > fed) return due;
  }
}

// ---- the keyed A/B/C generator -------------------------------------------

EventTypeRegistry MakeKeyedRegistry() {
  EventTypeRegistry registry;
  for (const char* name : {"A", "B", "C"}) registry.Register(name, {"v"});
  return registry;
}

/// Events of the keyed workloads: timestamps advance 1-2 ms per event
/// like KeyedEventSource's, partition keys are Zipf(kZipfExponent) over
/// kPartitions (key k has weight 1/(k+1)^s), and each partition's rare
/// type (partition % 3) appears with probability 0.1.
std::vector<Event> GenerateKeyed(size_t count, uint64_t seed) {
  std::vector<double> cdf(kPartitions);
  double total = 0.0;
  for (int k = 0; k < kPartitions; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = total;
  }
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  double ts = 0.0;
  for (size_t i = 0; i < count; ++i) {
    ts += rng.UniformReal(0.001, 0.002);
    const double u = rng.UniformReal(0.0, total);
    uint32_t partition = static_cast<uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    partition = std::min<uint32_t>(partition, kPartitions - 1);
    const TypeId rare = static_cast<TypeId>(partition % 3);
    const double coin = rng.UniformReal(0.0, 1.0);
    const TypeId type =
        coin < 0.1
            ? rare
            : static_cast<TypeId>((rare + 1 + rng.UniformInt(0, 1)) % 3);
    Event e;
    e.type = type;
    e.ts = ts;
    e.partition = partition;
    e.attrs = {rng.UniformReal(-1.0, 1.0)};
    events.push_back(std::move(e));
  }
  return events;
}

EventStream ToStream(const std::vector<Event>& events) {
  EventStream stream;
  for (const Event& e : events) stream.Append(e);
  return stream;
}

SimplePattern KeyedPattern(const EventTypeRegistry& registry, double window,
                           double offset, bool delta) {
  return PatternBuilder(OperatorKind::kSeq, registry)
      .Event("A", "a")
      .Event("B", "b")
      .Event("C", "c")
      .Where("a", "v", CmpOp::kLt, "c", "v", offset)
      .Within(window)
      .WithDeltaInput(delta)
      .Build();
}

// ---- workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Round RunRound(const RoundOptions& options) = 0;
  /// Digest agreements that must hold inside one round.
  virtual void CheckRound(Round* round) const = 0;
  /// True when every closed-loop round does the same work at the same
  /// point of the feed, so a chunk's fastest time over the rounds is a
  /// time the workload can run at. False where threads or the checkpoint
  /// writer's progress decide where work lands (sharded queues, skipped
  /// cuts); those report the median round.
  virtual bool deterministic_rounds() const = 0;
  virtual double matches_per_event_ceiling() const = 0;
  virtual const EventStream& history() const = 0;
  virtual size_t num_types() const = 0;
  /// How this workload's latency metrics are measured.
  virtual std::string latency_note() const = 0;
};

// paper_unkeyed -------------------------------------------------------------

class PaperUnkeyed : public Workload {
 public:
  explicit PaperUnkeyed(uint64_t seed) {
    cepjoin::StockGeneratorConfig config;
    config.num_symbols = 16;
    config.min_rate = 1.0;
    config.max_rate = 15.0;
    config.duration_seconds = kStockHistorySeconds + kStockLiveSeconds +
                              kStockSlices * kStockSliceStep;
    config.seed = kStockUniverseSeed;
    universe_ = cepjoin::GenerateStockStream(config);
    const double live_begin =
        kStockHistorySeconds +
        static_cast<double>(SubSeed(seed, 1) % kStockSlices) * kStockSliceStep;
    const double live_end = live_begin + kStockLiveSeconds;
    for (const EventPtr& e : universe_.stream.events()) {
      Event copy = *e;
      copy.serial = 0;
      copy.partition_seq = 0;
      if (e->ts < kStockHistorySeconds) {
        history_.Append(std::move(copy));
      } else if (e->ts >= live_begin && e->ts < live_end) {
        live_ts_.push_back(e->ts);
        live_.Append(std::move(copy));
      }
    }
    const std::vector<PatternFamily> families = cepjoin::AllFamilies();
    for (size_t k = 0; k < families.size(); ++k) {
      cepjoin::PatternGenConfig pg;
      pg.family = families[k];
      pg.size = kPatternSize;
      pg.window = WindowFor(families[k]);
      pg.seed = 100 + k;
      std::vector<SimplePattern> dnf =
          cepjoin::GeneratePattern(universe_, pg);
      for (const char* algorithm : {"DP-LD", "DP-B"}) {
        Tenant t;
        t.name = std::string(cepjoin::FamilyName(families[k])) + "/" +
                 algorithm;
        t.algorithm = algorithm;
        t.dnf = dnf;
        if (families[k] == PatternFamily::kDisjunction) {
          t.nested = AsNestedOr(dnf);
          t.dnf = cepjoin::ToDnf(*t.nested);
        }
        tenants_.push_back(std::move(t));
      }
    }
  }

  Round RunRound(const RoundOptions& o) override {
    Round r;
    Tracer* tracer = o.tracer;
    ScopedSpan round_span(tracer, "round.paper_unkeyed");
    const std::vector<EventPtr>& events = live_.events();
    const size_t feed_events =
        o.open_loop ? std::min(kPaperOpenEvents, events.size())
                    : events.size();
    OpenLoopSchedule schedule(kPaperRate, feed_events);
    LatencyProbe latency(&schedule, &live_ts_);
    std::vector<std::unique_ptr<BenchSink>> sinks;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      sinks.push_back(std::make_unique<BenchSink>(
          tracer, o.open_loop ? &latency : nullptr));
    }

    std::unique_ptr<CepService> service;
    std::vector<QueryHandle> handles;
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "round.setup");
      ServiceOptions options;
      options.history = &history_;
      options.num_types = universe_.registry.size();
      options.batch_size = kBatchSize;
      options.enable_metrics = o.metrics;
      {
        ScopedSpan create(tracer, "api.Create");
        auto created = CepService::Create(options);
        r.CheckStatus(created.status(), "Create");
        if (!created.ok()) return r.Abandon(events.size());
        service = std::move(created).value();
      }
      for (size_t i = 0; i < tenants_.size(); ++i) {
        ScopedSpan reg(tracer, "api.Register");
        auto handle = service->Register(SpecOf(tenants_[i], sinks[i].get()));
        r.CheckStatus(handle.status(), "Register " + tenants_[i].name);
        if (!handle.ok()) return r.Abandon(events.size());
        handles.push_back(handle.value());
      }
    }
    r.setup_s = SecondsSince(setup_start);

    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "round.feed");
      ChunkTimer chunks(&r.chunk_s);
      if (!o.open_loop) {
        for (size_t i = 0; i < events.size(); i += kBatchSize) {
          {
            ScopedSpan call(tracer, "api.OnBatch");
            service->OnBatch(events.data() + i,
                             std::min(kBatchSize, events.size() - i));
          }
          chunks.Fed(i + kBatchSize);
        }
      } else {
        schedule.Start(start);
        size_t fed = 0;
        while (fed < feed_events) {
          Clock::time_point now;
          const size_t due = WaitForDue(schedule, fed, &now);
          const size_t n = std::min(kBatchSize, due - fed);
          r.lag_ms.push_back(schedule.LatenessSeconds(fed, now) * 1e3);
          ScopedSpan call(tracer, "api.OnBatch");
          service->OnBatch(events.data() + fed, n);
          fed += n;
        }
      }
      {
        ScopedSpan finish(tracer, "api.Finish");
        service->Finish();
      }
      chunks.Cut();
    }
    r.run_s = SecondsSince(start);
    r.events = feed_events;
    r.attempted += feed_events;
    r.latency_us = std::move(latency.samples_us);

    std::vector<std::vector<EnginePlan>> plans;
    for (size_t i = 0; i < handles.size(); ++i) {
      auto counters = handles[i].counters();
      r.CheckStatus(counters.status(), "counters " + tenants_[i].name);
      if (counters.ok()) {
        r.counters.MergeDisjoint(counters.value());
        r.peak_state_bytes += counters.value().peak_total_bytes;
      }
      auto p = handles[i].plans();
      r.CheckStatus(p.status(), "plans " + tenants_[i].name);
      plans.push_back(p.ok() ? p.value() : std::vector<EnginePlan>{});
      r.digests.push_back(sinks[i]->digest);
    }
    if (o.probes && o.metrics) {
      ScopedSpan snap(tracer, "obs.MetricsSnapshot");
      (void)service->MetricsSnapshot();
    }
    if (o.probes) Probe(tracer, plans, &r);
    return r;
  }

  void CheckRound(Round* r) const override {
    for (size_t i = 0; i + 1 < r->digests.size(); i += 2) {
      r->Check(r->digests[i] == r->digests[i + 1],
               "digest " + tenants_[i].name + " " +
                   r->digests[i].ToString() + " != " + tenants_[i + 1].name +
                   " " + r->digests[i + 1].ToString());
    }
  }

  bool deterministic_rounds() const override { return true; }
  double matches_per_event_ceiling() const override {
    return kPaperMatchesPerEventCeiling;
  }
  const EventStream& history() const override { return history_; }
  size_t num_types() const override { return universe_.registry.size(); }
  std::string latency_note() const override {
    return "sink callback time minus the due time of the match's last "
           "event, open loop at " +
           std::to_string(static_cast<long>(kPaperRate)) + " events/s";
  }

 private:
  struct Tenant {
    std::string name;
    std::string algorithm;
    std::vector<SimplePattern> dnf;
    std::optional<NestedPattern> nested;
  };

  /// Windows calibrated so that partial-match work, not match
  /// enumeration, dominates: at these windows every family emits well
  /// under one match per event (see kPaperMatchesPerEventCeiling).
  static double WindowFor(PatternFamily family) {
    switch (family) {
      case PatternFamily::kSequence:
        return 1.0;
      case PatternFamily::kKleene:
        return 0.5;
      case PatternFamily::kNegation:
        return 0.4;
      case PatternFamily::kConjunction:
        return 0.3;
      case PatternFamily::kDisjunction:
        return 0.25;
    }
    return 1.0;
  }

  /// The disjunction family as the nested OR of its three generated
  /// sequences; ToDnf gives the sequences back with the same positions.
  static NestedPattern AsNestedOr(const std::vector<SimplePattern>& subs) {
    NestedPattern nested;
    std::vector<std::shared_ptr<const PatternNode>> alternatives;
    for (size_t k = 0; k < subs.size(); ++k) {
      const std::string prefix = "s" + std::to_string(k) + "_";
      std::vector<std::shared_ptr<const PatternNode>> leaves;
      for (const cepjoin::EventSpec& spec : subs[k].events()) {
        cepjoin::EventSpec renamed = spec;
        renamed.name = prefix + spec.name;
        leaves.push_back(PatternNode::Leaf(renamed));
      }
      alternatives.push_back(PatternNode::Op(OperatorKind::kSeq, leaves));
      for (const cepjoin::ConditionPtr& c : subs[k].conditions()) {
        cepjoin::NamedCondition nc;
        nc.left_name = prefix + subs[k].events()[c->left()].name;
        nc.right_name = prefix + subs[k].events()[c->right()].name;
        nc.make = [c](int left, int right) {
          CEPJOIN_CHECK(left == c->left() && right == c->right());
          return c;
        };
        nested.conditions.push_back(std::move(nc));
      }
    }
    nested.root = PatternNode::Op(OperatorKind::kOr, alternatives);
    nested.window = subs[0].window();
    nested.strategy = subs[0].strategy();
    return nested;
  }

  static QuerySpec SpecOf(const Tenant& t, MatchSink* sink) {
    QuerySpec spec = t.nested ? QuerySpec::Nested(*t.nested)
                              : QuerySpec::Simple(t.dnf[0]);
    spec.WithName(t.name).WithAlgorithm(t.algorithm).WithSink(sink);
    return spec;
  }

  /// The optimizer probe (MakePlan reproducing the registered plans) and
  /// the engine probe (the same events through BuildEngine engines).
  void Probe(Tracer* tracer, const std::vector<std::vector<EnginePlan>>& plans,
             Round* r) const {
    const StatsCollector collector(history_, universe_.registry.size());
    double plan_cost = 0.0;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& t = tenants_[i];
      if (plans[i].size() != t.dnf.size()) {
        r->Check(false, "plan count of " + t.name);
        continue;
      }
      for (size_t k = 0; k < t.dnf.size(); ++k) {
        CostFunction cost = cepjoin::MakeCostFunction(
            t.dnf[k], collector.CollectForPattern(t.dnf[k]), 0.0);
        cepjoin::StatusOr<EnginePlan> plan = EnginePlan{};
        {
          ScopedSpan span(tracer, "optimizer.MakePlan");
          plan = cepjoin::MakePlan(t.algorithm, cost);
        }
        r->CheckStatus(plan.status(), "MakePlan " + t.name);
        if (!plan.ok()) continue;
        r->Check(plan.value().Describe() == plans[i][k].Describe(),
                 "MakePlan does not reproduce the plan registered for " +
                     t.name);
        plan_cost += plan.value().kind == EnginePlan::Kind::kOrder
                         ? cost.OrderCost(plan.value().order)
                         : cost.TreeCost(plan.value().tree);
      }
    }
    r->layer["optimizer.plan_cost"] = plan_cost;

    const std::vector<EventPtr>& events = live_.events();
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& t = tenants_[i];
      if (plans[i].size() != t.dnf.size()) continue;
      BenchSink sink(nullptr, nullptr);
      std::unique_ptr<cepjoin::Engine> engine =
          t.dnf.size() == 1
              ? cepjoin::BuildEngine(t.dnf[0], plans[i][0], &sink)
              : cepjoin::BuildDnfEngine(t.dnf, plans[i], &sink);
      const std::string name =
          plans[i][0].kind == EnginePlan::Kind::kTree ? "engine.OnBatch.tree"
                                                      : "engine.OnBatch.nfa";
      for (size_t j = 0; j < events.size(); j += kBatchSize) {
        ScopedSpan span(tracer, name);
        engine->OnBatch(events.data() + j,
                        std::min(kBatchSize, events.size() - j));
      }
      engine->Finish();
      r->Check(sink.digest == r->digests[i],
               "engine probe digest of " + t.name + " " +
                   sink.digest.ToString() + " != service " +
                   r->digests[i].ToString());
    }
  }

  cepjoin::StockUniverse universe_;
  EventStream history_;
  EventStream live_;
  std::vector<double> live_ts_;
  std::vector<Tenant> tenants_;
};

// keyed_sharded --------------------------------------------------------------

class KeyedSharded : public Workload {
 public:
  explicit KeyedSharded(uint64_t seed)
      : registry_(MakeKeyedRegistry()),
        pattern_(KeyedPattern(registry_, kKeyedWindow, 0.0, false)),
        history_(ToStream(GenerateKeyed(kKeyedHistoryEvents,
                                        SubSeed(seed, 2)))),
        live_(ToStream(GenerateKeyed(kKeyedEvents, SubSeed(seed, 3)))),
        default_threads_(std::max<size_t>(2, HardwareThreads() - 1)) {}

  Round RunRound(const RoundOptions& o) override {
    Round r;
    Tracer* tracer = o.tracer;
    ScopedSpan round_span(tracer, "round.keyed_sharded");
    const std::vector<EventPtr>& events = live_.events();
    std::vector<std::unique_ptr<BenchSink>> sinks;
    for (size_t i = 0; i < kAlgorithms.size(); ++i) {
      sinks.push_back(std::make_unique<BenchSink>(
          tracer, nullptr, o.open_loop ? &r.latency_us : nullptr));
    }
    const size_t threads = o.num_threads != 0 ? o.num_threads
                                              : default_threads_;
    std::unique_ptr<CepService> service;
    std::vector<QueryHandle> handles;
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "round.setup");
      ServiceOptions options;
      options.history = &history_;
      options.num_types = registry_.size();
      options.num_threads = threads;
      options.batch_size = kBatchSize;
      options.enable_metrics = o.metrics;
      {
        ScopedSpan create(tracer, "api.Create");
        auto created = CepService::Create(options);
        r.CheckStatus(created.status(), "Create");
        if (!created.ok()) return r.Abandon(events.size());
        service = std::move(created).value();
      }
      for (size_t i = 0; i < kAlgorithms.size(); ++i) {
        ScopedSpan reg(tracer, "api.Register");
        auto handle = service->Register(QuerySpec::Simple(pattern_)
                                            .WithName(kAlgorithms[i])
                                            .WithAlgorithm(kAlgorithms[i])
                                            .Keyed()
                                            .WithSink(sinks[i].get()));
        r.CheckStatus(handle.status(), std::string("Register ") +
                                           kAlgorithms[i]);
        if (!handle.ok()) return r.Abandon(events.size());
        handles.push_back(handle.value());
      }
    }
    r.setup_s = SecondsSince(setup_start);

    std::vector<double> queue_depths;
    const size_t feed_events =
        o.open_loop ? std::min(kKeyedOpenEvents, events.size())
                    : events.size();
    OpenLoopSchedule schedule(kKeyedRate, feed_events);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "round.feed");
      size_t calls = 0;
      ChunkTimer chunks(&r.chunk_s);
      if (!o.open_loop) {
        for (size_t i = 0; i < events.size(); i += kBatchSize) {
          {
            ScopedSpan call(tracer, "api.OnBatch");
            service->OnBatch(events.data() + i,
                             std::min(kBatchSize, events.size() - i));
          }
          chunks.Fed(i + kBatchSize);
          if (o.probes && o.metrics && ++calls % 32 == 0) {
            ScopedSpan snap(tracer, "obs.MetricsSnapshot");
            std::vector<double> depths = PointValues(
                service->MetricsSnapshot(), metric_names::kShardQueueDepth);
            queue_depths.insert(queue_depths.end(), depths.begin(),
                                depths.end());
          }
        }
      } else {
        schedule.Start(start);
        size_t fed = 0;
        while (fed < feed_events) {
          Clock::time_point now;
          const size_t due = WaitForDue(schedule, fed, &now);
          const size_t n = std::min(kBatchSize, due - fed);
          r.lag_ms.push_back(schedule.LatenessSeconds(fed, now) * 1e3);
          ScopedSpan call(tracer, "api.OnBatch");
          service->OnBatch(events.data() + fed, n);
          fed += n;
        }
      }
      {
        ScopedSpan finish(tracer, "api.Finish");
        service->Finish();
      }
      chunks.Cut();
    }
    r.run_s = SecondsSince(start);
    r.events = feed_events;
    r.attempted += feed_events;

    uint64_t delivered = 0;
    for (size_t i = 0; i < handles.size(); ++i) {
      auto counters = handles[i].counters();
      r.CheckStatus(counters.status(),
                    std::string("counters ") + kAlgorithms[i]);
      if (counters.ok()) {
        r.counters.MergeDisjoint(counters.value());
        r.peak_state_bytes += counters.value().peak_total_bytes;
      }
      r.digests.push_back(sinks[i]->digest);
      delivered += static_cast<uint64_t>(sinks[i]->digest.net);
    }
    if (o.probes) {
      r.layer["parallel.buffered_matches"] = static_cast<double>(delivered);
    }
    if (o.probes && o.metrics) {
      cepjoin::MetricsSnapshot snapshot;
      {
        ScopedSpan snap(tracer, "obs.MetricsSnapshot");
        snapshot = service->MetricsSnapshot();
      }
      std::vector<double> shard_events =
          PointValues(snapshot, metric_names::kShardEvents);
      double max = 0.0;
      double sum = 0.0;
      for (double v : shard_events) {
        max = std::max(max, v);
        sum += v;
      }
      r.layer["parallel.shard_skew"] =
          sum > 0.0 ? max / (sum / static_cast<double>(shard_events.size()))
                    : 0.0;
      r.layer["parallel.queue_depth_p50"] = Percentile(queue_depths, 0.5);
      r.layer["parallel.queue_depth_max"] = Percentile(queue_depths, 1.0);
      const HistogramData ingest_to_match =
          MergedHistogram(snapshot, metric_names::kIngestToMatchSeconds);
      r.layer["parallel.eval_latency_p50_s"] = ingest_to_match.Quantile(0.5);
      r.layer["parallel.eval_latency_p99_s"] = ingest_to_match.Quantile(0.99);
    }
    return r;
  }

  void CheckRound(Round* r) const override {
    for (size_t i = 1; i < r->digests.size(); ++i) {
      r->Check(r->digests[i] == r->digests[0],
               std::string("digest ") + kAlgorithms[i] + " " +
                   r->digests[i].ToString() + " != " + kAlgorithms[0] + " " +
                   r->digests[0].ToString());
    }
  }

  bool deterministic_rounds() const override { return false; }
  double matches_per_event_ceiling() const override {
    return kKeyedMatchesPerEventCeiling;
  }
  const EventStream& history() const override { return history_; }
  size_t num_types() const override { return registry_.size(); }
  std::string latency_note() const override {
    return "detection latency (Match::latency_seconds, the paper's "
           "Sec. 6.1 latency: from the start of processing a match's last "
           "event on its shard worker to the match's formation), open loop "
           "at " +
           std::to_string(static_cast<long>(kKeyedRate)) +
           " events/s; sink-callback latency is not observable here because "
           "sharded matches reach their sinks only at Finish(), and the "
           "service's ingest-to-match histogram is the per-layer "
           "parallel.eval_latency_*";
  }

 private:
  /// Two tenants share one spec, so cross-tenant sharing has work to
  /// find.
  inline static const std::vector<const char*> kAlgorithms = {
      "DP-LD", "DP-LD", "GREEDY", "DP-B"};

  EventTypeRegistry registry_;
  SimplePattern pattern_;
  EventStream history_;
  EventStream live_;
  size_t default_threads_;
};

// durable_pump ---------------------------------------------------------------

class DurablePump : public Workload {
 public:
  DurablePump(uint64_t seed, std::string work_dir)
      : registry_(MakeKeyedRegistry()),
        pattern_(KeyedPattern(registry_, kDurableWindow, kDurableOffset,
                              true)),
        history_(ToStream(GenerateKeyed(kKeyedHistoryEvents,
                                        SubSeed(seed, 4)))),
        work_dir_(std::move(work_dir)) {
    RenderCsv(SubSeed(seed, 5));
  }

  Round RunRound(const RoundOptions& o) override {
    Round r;
    Tracer* tracer = o.tracer;
    ScopedSpan round_span(tracer, "round.durable_pump");
    const std::string dir = work_dir_ + "/ckpt-" + std::to_string(::getpid()) +
                            "-" + std::to_string(next_dir_++);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    OpenLoopSchedule schedule(kDurableRate, rows_);
    LatencyProbe latency(&schedule, &row_ts_);
    BenchSink sink(tracer, o.open_loop ? &latency : nullptr);
    std::vector<std::unique_ptr<StreamSource>> sources = MakeSources(tracer);

    std::unique_ptr<CepService> service;
    QueryHandle handle;
    std::unique_ptr<CheckpointCoordinator> coordinator;
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan span(tracer, "round.setup");
      {
        ScopedSpan create(tracer, "api.Create");
        auto created = CepService::Create(Options(o.metrics));
        r.CheckStatus(created.status(), "Create");
        if (!created.ok()) return r.Abandon(rows_);
        service = std::move(created).value();
      }
      {
        ScopedSpan reg(tracer, "api.Register");
        auto registered = service->Register(Spec(&sink));
        r.CheckStatus(registered.status(), "Register");
        if (!registered.ok()) return r.Abandon(rows_);
        handle = registered.value();
      }
      for (auto& source : sources) {
        ScopedSpan attach(tracer, "api.AttachSource");
        r.CheckStatus(service->AttachSource(std::move(source)),
                      "AttachSource");
      }
      CheckpointOptions copts;
      copts.dir = dir;
      copts.min_watermark_advance = row_ts_.back() / kDurableCuts;
      copts.metrics = service->metrics_registry();
      coordinator = std::make_unique<CheckpointCoordinator>(service.get(),
                                                            copts);
      ScopedSpan start(tracer, "durable.Start");
      r.CheckStatus(coordinator->Start(), "coordinator Start");
    }
    r.setup_s = SecondsSince(setup_start);

    std::vector<Digest> cut_digests;
    size_t fed = 0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "round.feed");
      ChunkTimer chunks(&r.chunk_s);
      if (o.open_loop) schedule.Start(start);
      while (fed < rows_) {
        size_t cap = kPumpChunk;
        if (o.open_loop) {
          Clock::time_point now;
          const size_t due = WaitForDue(schedule, fed, &now);
          cap = std::min(cap, due - fed);
          r.lag_ms.push_back(schedule.LatenessSeconds(fed, now) * 1e3);
        }
        cepjoin::StatusOr<size_t> pumped = size_t{0};
        {
          ScopedSpan call(tracer, "api.PumpAttachedSources");
          pumped = service->PumpAttachedSources(cap);
        }
        if (!pumped.ok()) {
          r.CheckStatus(pumped.status(), "PumpAttachedSources");
          break;
        }
        if (pumped.value() == 0) break;
        fed += pumped.value();
        {
          ScopedSpan call(tracer, "durable.MaybeCheckpoint");
          auto cut = coordinator->MaybeCheckpoint(row_ts_[fed - 1]);
          if (!cut.ok()) {
            r.CheckStatus(cut.status(), "MaybeCheckpoint");
          } else if (cut.value()) {
            call.Rename("durable.MaybeCheckpoint.cut");
            ++r.attempted;
            cut_digests.push_back(sink.digest);
          }
        }
        chunks.Fed(fed);
      }
      {
        ScopedSpan stop(tracer, "durable.Stop");
        r.CheckStatus(coordinator->Stop(), "coordinator Stop");
      }
      {
        ScopedSpan finish(tracer, "api.Finish");
        service->Finish();
      }
      chunks.Cut();
    }
    r.run_s = SecondsSince(start);
    r.events = fed;
    r.attempted += rows_;
    r.failed += rows_ - fed;
    r.latency_us = std::move(latency.samples_us);

    auto counters = handle.counters();
    r.CheckStatus(counters.status(), "counters");
    if (counters.ok()) {
      r.counters.MergeDisjoint(counters.value());
      r.peak_state_bytes = counters.value().peak_total_bytes;
    }
    r.digests.push_back(sink.digest);
    const uint64_t published = coordinator->published();
    r.Check(published == cut_digests.size(),
            "published " + std::to_string(published) + " of " +
                std::to_string(cut_digests.size()) + " checkpoints");
    if (o.probes && o.metrics) {
      cepjoin::MetricsSnapshot snapshot;
      {
        ScopedSpan snap(tracer, "obs.MetricsSnapshot");
        snapshot = service->MetricsSnapshot();
      }
      r.layer["durable.skipped"] =
          snapshot.Value(metric_names::kCheckpointsSkipped);
      r.layer["durable.checkpoint_mb"] =
          snapshot.Value(metric_names::kCheckpointBytes) / 1e6;
    }
    r.layer["durable.cuts"] = static_cast<double>(cut_digests.size());
    r.layer["durable.publish_ratio"] =
        cut_digests.empty() ? 0.0
                            : static_cast<double>(published) /
                                  static_cast<double>(cut_digests.size());
    auto partitions = handle.num_partitions();
    r.CheckStatus(partitions.status(), "num_partitions");
    if (partitions.ok()) {
      r.layer["adaptive.partitions"] = static_cast<double>(partitions.value());
    }
    if (o.restore_check) RestoreCheck(tracer, dir, cut_digests, &r);
    std::filesystem::remove_all(dir, ec);
    return r;
  }

  void CheckRound(Round*) const override {}

  bool deterministic_rounds() const override { return false; }
  double matches_per_event_ceiling() const override {
    return kDurableMatchesPerEventCeiling;
  }
  const EventStream& history() const override { return history_; }
  size_t num_types() const override { return registry_.size(); }
  std::string latency_note() const override {
    return "sink callback time minus the due time of the match's last "
           "row, open loop at " +
           std::to_string(static_cast<long>(kDurableRate)) + " rows/s";
  }

 private:
  ServiceOptions Options(bool metrics) const {
    ServiceOptions options;
    options.history = &history_;
    options.num_types = registry_.size();
    options.num_threads = 1;
    options.batch_size = kBatchSize;
    options.enable_metrics = metrics;
    return options;
  }

  QuerySpec Spec(MatchSink* sink) const {
    return QuerySpec::Simple(pattern_)
        .WithName("delta")
        .WithAlgorithm("DP-LD")
        .Keyed()
        .WithSink(sink);
  }

  std::vector<std::unique_ptr<StreamSource>> MakeSources(
      Tracer* tracer) const {
    std::vector<std::unique_ptr<StreamSource>> sources;
    for (const std::string& text : csv_) {
      std::unique_ptr<StreamSource> source =
          std::make_unique<StringCsvSource>(text, &registry_);
      if (tracer != nullptr && tracer->enabled()) {
        source = std::make_unique<TimedSource>(std::move(source), tracer);
      }
      sources.push_back(std::move(source));
    }
    return sources;
  }

  /// Renders the keyed stream as two CSV texts (even and odd
  /// partitions), each with its own retractions: a retraction follows
  /// its insertion within half a window, in the same text.
  void RenderCsv(uint64_t seed) {
    const std::vector<Event> inserts = GenerateKeyed(kDurableInserts, seed);
    Rng rng(SubSeed(seed, 6));
    struct Row {
      double ts;
      size_t insert;  // index into `inserts`
      bool retract;
    };
    std::vector<Row> rows;
    rows.reserve(inserts.size() * 2);
    for (size_t i = 0; i < inserts.size(); ++i) {
      rows.push_back({inserts[i].ts, i, false});
      if (rng.UniformReal(0.0, 1.0) < kDurableRetractShare) {
        rows.push_back({inserts[i].ts +
                            rng.UniformReal(0.0005, kDurableWindow / 2),
                        i, true});
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.ts < b.ts; });
    const char* names[] = {"A", "B", "C"};
    const char* header = "type,ts,partition,v,polarity,retract_ts\n";
    csv_.assign(2, header);
    char line[160];
    for (const Row& row : rows) {
      const Event& e = inserts[row.insert];
      char ts[32];
      std::snprintf(ts, sizeof(ts), "%.6f", row.ts);
      if (row.retract) {
        char target[32];
        std::snprintf(target, sizeof(target), "%.6f", e.ts);
        std::snprintf(line, sizeof(line), "%s,%s,%u,0,-1,%s\n",
                      names[e.type], ts, e.partition, target);
      } else {
        std::snprintf(line, sizeof(line), "%s,%s,%u,%.6f,+1,\n",
                      names[e.type], ts, e.partition, e.attrs[0]);
      }
      csv_[e.partition % 2] += line;
      row_ts_.push_back(std::strtod(ts, nullptr));
    }
    rows_ = rows.size();
  }

  /// A fresh service restores the last checkpoint and replays the tail;
  /// the matches before the cut plus the replayed ones must equal the
  /// uninterrupted run's.
  void RestoreCheck(Tracer* tracer, const std::string& dir,
                    const std::vector<Digest>& cut_digests, Round* r) const {
    BenchSink sink(nullptr, nullptr);
    auto created = CepService::Create(Options(true));
    r->CheckStatus(created.status(), "restore Create");
    if (!created.ok()) return;
    std::unique_ptr<CepService> service = std::move(created).value();
    auto registered = service->Register(Spec(&sink));
    r->CheckStatus(registered.status(), "restore Register");
    if (!registered.ok()) return;
    for (auto& source : MakeSources(nullptr)) {
      r->CheckStatus(service->AttachSource(std::move(source)),
                     "restore AttachSource");
    }
    size_t replayed = 0;
    cepjoin::StatusOr<CepService::RestoreReport> report =
        CepService::RestoreReport{};
    {
      ScopedSpan span(tracer, "api.RestoreFrom");
      report = service->RestoreFrom(dir);
    }
    r->CheckStatus(report.status(), "RestoreFrom");
    if (!report.ok()) return;
    {
      ScopedSpan span(tracer, "durable.ReplayTail");
      while (true) {
        auto pumped = service->PumpAttachedSources(kPumpChunk);
        if (!pumped.ok()) {
          r->CheckStatus(pumped.status(), "replay PumpAttachedSources");
          return;
        }
        if (pumped.value() == 0) break;
        replayed += pumped.value();
      }
      service->Finish();
    }
    r->layer["durable.replay_events"] = static_cast<double>(replayed);
    const uint64_t seq = report.value().checkpoint_seq;
    if (seq == 0 || seq > cut_digests.size()) {
      r->Check(false, "restored checkpoint " + std::to_string(seq) +
                          " was never cut");
      return;
    }
    const Digest combined = cut_digests[seq - 1].Plus(sink.digest);
    r->Check(combined == r->digests[0],
             "restored+replayed digest " + combined.ToString() +
                 " != uninterrupted " + r->digests[0].ToString());
  }

  EventTypeRegistry registry_;
  SimplePattern pattern_;
  EventStream history_;
  std::string work_dir_;
  std::vector<std::string> csv_;
  /// Timestamps of all rows in merge order.
  std::vector<double> row_ts_;
  size_t rows_ = 0;
  int next_dir_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config) {
  if (name == "paper_unkeyed") {
    return std::make_unique<PaperUnkeyed>(config.seed);
  }
  if (name == "keyed_sharded") {
    return std::make_unique<KeyedSharded>(config.seed);
  }
  if (name == "durable_pump") {
    return std::make_unique<DurablePump>(config.seed, config.work_dir);
  }
  return nullptr;
}

// ---- recorded outputs -----------------------------------------------------

struct ExpectedDigest {
  const char* workload;
  size_t query;
  uint64_t sum;
  int64_t net;
};

/// Net-output digests of every query at kDefaultSeed, recorded when the
/// benchmark was written. They change only if the inputs or the
/// evaluation semantics change.
constexpr ExpectedDigest kExpectedDigests[] = {
    {"paper_unkeyed", 0, 0x2caa3f82beb77fc9ull, 5353},
    {"paper_unkeyed", 1, 0x2caa3f82beb77fc9ull, 5353},
    {"paper_unkeyed", 2, 0x77f1b2f55f96016aull, 22481},
    {"paper_unkeyed", 3, 0x77f1b2f55f96016aull, 22481},
    {"paper_unkeyed", 4, 0x3a990f043687caf7ull, 22598},
    {"paper_unkeyed", 5, 0x3a990f043687caf7ull, 22598},
    {"paper_unkeyed", 6, 0x3ec34ab49bc3e8deull, 6983},
    {"paper_unkeyed", 7, 0x3ec34ab49bc3e8deull, 6983},
    {"paper_unkeyed", 8, 0x6cb0216ca7d98086ull, 30667},
    {"paper_unkeyed", 9, 0x6cb0216ca7d98086ull, 30667},
    {"keyed_sharded", 0, 0x7c7362ac37cd268aull, 23462},
    {"keyed_sharded", 1, 0x7c7362ac37cd268aull, 23462},
    {"keyed_sharded", 2, 0x7c7362ac37cd268aull, 23462},
    {"keyed_sharded", 3, 0x7c7362ac37cd268aull, 23462},
    {"durable_pump", 0, 0x7618068e865dd254ull, 7519},
};

void CheckRecordedDigests(const std::string& workload, uint64_t seed,
                          const Round& round, Report* report) {
  if (seed != kDefaultSeed) return;
  for (const ExpectedDigest& e : kExpectedDigests) {
    if (workload != e.workload) continue;
    ++report->attempted;
    const Digest expected{e.sum, e.net};
    if (e.query >= round.digests.size() ||
        round.digests[e.query] != expected) {
      ++report->failed;
      report->correct = false;
      report->lines.push_back(
          "MISMATCH: query " + std::to_string(e.query) + " digest " +
          (e.query < round.digests.size() ? round.digests[e.query].ToString()
                                          : std::string("missing")) +
          " != recorded " + expected.ToString());
    }
  }
}

// ---- orchestration -------------------------------------------------------

void Absorb(const Round& round, Report* report) {
  report->attempted += round.attempted;
  report->failed += round.failed;
  for (const std::string& e : round.errors) {
    report->correct = false;
    report->lines.push_back("FAILED: " + e);
  }
}

/// Later rounds must reproduce the first round's digests exactly.
void CheckSameOutput(const Round& reference, Round* round,
                     const std::string& what) {
  round->Check(round->digests == reference.digests,
               what + " output differs from the first round's");
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

double MatchesPerEvent(const Round& r) {
  return r.events == 0 ? 0.0
                       : static_cast<double>(r.counters.matches_emitted) /
                             static_cast<double>(r.events);
}

void GuardShape(const Workload& workload, const Round& r, Report* report) {
  const double mpe = MatchesPerEvent(r);
  ++report->attempted;
  const double instances =
      r.events == 0 ? 0.0
                    : static_cast<double>(r.counters.instances_created) /
                          static_cast<double>(r.events);
  report->lines.push_back("  engine.matches_per_event " + Fmt("%.4f", mpe) +
                          " (calibrated ceiling " +
                          Fmt("%.2f", workload.matches_per_event_ceiling()) +
                          "); partial matches per event " +
                          Fmt("%.2f", instances));
  if (mpe > workload.matches_per_event_ceiling()) {
    ++report->failed;
    report->correct = false;
    report->lines.push_back(
        "FAILED: workload shape guard: matches per event above the "
        "calibrated ceiling; the run would time match enumeration");
  }
}

/// Sum and individual durations (seconds) of the spans named
/// `name` from index `first` on.
struct SpanStats {
  double total_s = 0.0;
  std::vector<double> each_s;
};

SpanStats Collect(const std::vector<Span>& spans, size_t first,
                  const std::string& name) {
  SpanStats stats;
  for (size_t i = first; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    const double s = static_cast<double>(spans[i].duration_ns()) * 1e-9;
    stats.total_s += s;
    stats.each_s.push_back(s);
  }
  return stats;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values of one workload's designated traced round, from its
/// spans and counters.
void DeriveLayers(const std::vector<Span>& spans, size_t first,
                  const Round& round, std::map<std::string, double>* out) {
  std::map<std::string, double>& layer = *out;
  const SpanStats feed = Collect(spans, first, "api.OnBatch");
  const SpanStats nfa = Collect(spans, first, "engine.OnBatch.nfa");
  const SpanStats tree = Collect(spans, first, "engine.OnBatch.tree");
  const SpanStats pump = Collect(spans, first, "api.PumpAttachedSources");
  const SpanStats parse =
      Collect(spans, first, "event.StreamingCsvSource.Next");
  const SpanStats cuts = Collect(spans, first, "durable.MaybeCheckpoint.cut");
  layer["stats.collect_s"] =
      Mean(Collect(spans, first, "stats.StatsCollector").each_s);
  layer["optimizer.plan_s"] = Collect(spans, first, "optimizer.MakePlan").total_s;
  layer["api.register_s"] = Mean(Collect(spans, first, "api.Register").each_s);
  layer["api.feed_s"] = feed.total_s;
  layer["api.feed_call_p50_us"] = Percentile(feed.each_s, 0.5) * 1e6;
  layer["api.feed_call_p99_us"] = Percentile(feed.each_s, 0.99) * 1e6;
  layer["engine.nfa_busy_s"] = nfa.total_s;
  layer["engine.tree_busy_s"] = tree.total_s;
  layer["engine.busy_s"] = nfa.total_s + tree.total_s;
  layer["api.fanout_s"] = feed.total_s - (nfa.total_s + tree.total_s);
  layer["api.pump_s"] = pump.total_s - parse.total_s;
  layer["api.finish_s"] = Collect(spans, first, "api.Finish").total_s;
  layer["parallel.route_s"] = feed.total_s;
  layer["event.parse_s"] = parse.total_s;
  layer["event.rows_per_s"] =
      Ratio(static_cast<double>(round.events), parse.total_s);
  layer["durable.capture_ms_p50"] = Percentile(cuts.each_s, 0.5) * 1e3;
  layer["durable.capture_ms_max"] = Percentile(cuts.each_s, 1.0) * 1e3;
  layer["durable.stop_s"] = Collect(spans, first, "durable.Stop").total_s;
  const SpanStats restore = Collect(spans, first, "api.RestoreFrom");
  if (!restore.each_s.empty()) {
    layer["durable.restore_s"] =
        restore.total_s + Collect(spans, first, "durable.ReplayTail").total_s;
  }
  layer["obs.snapshot_ms"] =
      Mean(Collect(spans, first, "obs.MetricsSnapshot").each_s) * 1e3;

  const EngineCounters& c = round.counters;
  layer["engine.instances_created"] = static_cast<double>(c.instances_created);
  layer["engine.predicate_evals"] = static_cast<double>(c.predicate_evals);
  layer["engine.peak_live_instances"] =
      static_cast<double>(c.peak_live_instances);
  layer["engine.peak_buffered_events"] =
      static_cast<double>(c.peak_buffered_events);
  layer["engine.matches_per_instance"] =
      Ratio(static_cast<double>(c.matches_emitted),
            static_cast<double>(c.instances_created));
  layer["engine.kernel_lane_density"] =
      Ratio(static_cast<double>(c.instance_kernel_lanes),
            64.0 * static_cast<double>(c.instance_kernel_blocks));
  layer["engine.retractions"] = static_cast<double>(c.retractions_processed);
  layer["engine.revoked_ratio"] =
      Ratio(static_cast<double>(c.matches_revoked),
            static_cast<double>(c.matches_emitted));
  layer["engine.matches_per_event"] = MatchesPerEvent(round);
}

/// Every per-layer metric and the workload it is measured on; an empty
/// source means the workload the run names.
struct LayerMetric {
  std::string name;
  const char* unit;
  const char* source;
};

const LayerMetric kLayerMetrics[] = {
    {"stats.collect_s", "s", ""},
    {"optimizer.plan_s", "s", "paper_unkeyed"},
    {"optimizer.plan_cost", "pm", "paper_unkeyed"},
    {"api.register_s", "s", ""},
    {"api.feed_s", "s", "paper_unkeyed"},
    {"api.feed_call_p50_us", "us", "paper_unkeyed"},
    {"api.feed_call_p99_us", "us", "paper_unkeyed"},
    {"api.fanout_s", "s", "paper_unkeyed"},
    {"api.pump_s", "s", "durable_pump"},
    {"api.finish_s", "s", "keyed_sharded"},
    {"engine.busy_s", "s", "paper_unkeyed"},
    {"engine.nfa_busy_s", "s", "paper_unkeyed"},
    {"engine.tree_busy_s", "s", "paper_unkeyed"},
    {"engine.instances_created", "count", ""},
    {"engine.predicate_evals", "count", ""},
    {"engine.peak_live_instances", "count", ""},
    {"engine.peak_buffered_events", "count", ""},
    {"engine.matches_per_instance", "ratio", ""},
    {"engine.kernel_lane_density", "ratio", "paper_unkeyed"},
    {"engine.retractions", "count", "durable_pump"},
    {"engine.revoked_ratio", "ratio", "durable_pump"},
    {"engine.matches_per_event", "ratio", ""},
    {"parallel.route_s", "s", "keyed_sharded"},
    {"parallel.queue_depth_p50", "batches", "keyed_sharded"},
    {"parallel.queue_depth_max", "batches", "keyed_sharded"},
    {"parallel.shard_skew", "ratio", "keyed_sharded"},
    {"parallel.buffered_matches", "count", "keyed_sharded"},
    {"parallel.speedup_1t", "ratio", "keyed_sharded"},
    {"parallel.eval_latency_p50_s", "s", "keyed_sharded"},
    {"parallel.eval_latency_p99_s", "s", "keyed_sharded"},
    {"adaptive.partitions", "count", "durable_pump"},
    {"event.parse_s", "s", "durable_pump"},
    {"event.rows_per_s", "rows/s", "durable_pump"},
    {"durable.capture_ms_p50", "ms", "durable_pump"},
    {"durable.capture_ms_max", "ms", "durable_pump"},
    {"durable.cuts", "count", "durable_pump"},
    {"durable.skipped", "count", "durable_pump"},
    {"durable.publish_ratio", "ratio", "durable_pump"},
    {"durable.checkpoint_mb", "MB", "durable_pump"},
    {"durable.stop_s", "s", "durable_pump"},
    {"durable.restore_s", "s", "durable_pump"},
    {"durable.replay_events", "count", "durable_pump"},
    {"obs.snapshot_ms", "ms", ""},
    {"obs.metrics_off_ratio", "ratio", ""},
    {"load.lag_p99_ms", "ms", ""},
    {"trace.overhead", "ratio", ""},
};

void EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_unkeyed", "keyed_sharded", "durable_pump"};
  return names;
}

Report RunEndToEnd(const std::string& name, const RunConfig& config) {
  Report report;
  EnsureDir(config.work_dir);
  std::unique_ptr<Workload> workload = MakeWorkload(name, config);
  const Clock::time_point begin = Clock::now();

  // Warm-up round: fills caches and lazily built state, gives the
  // reference output, and carries the checks that need extra sessions.
  RoundOptions warm;
  warm.restore_check = true;
  Round reference = workload->RunRound(warm);
  workload->CheckRound(&reference);
  Absorb(reference, &report);
  CheckRecordedDigests(name, config.seed, reference, &report);
  GuardShape(*workload, reference, &report);
  if (auto* keyed = dynamic_cast<KeyedSharded*>(workload.get())) {
    RoundOptions one;
    one.num_threads = 1;
    Round single = keyed->RunRound(one);
    CheckSameOutput(reference, &single, "1-thread");
    Absorb(single, &report);
  }

  std::vector<double> throughput;
  std::vector<double> setup;
  std::vector<double> state_mb;
  std::vector<std::vector<double>> chunks;
  std::vector<std::vector<double>> latencies;
  std::vector<double> pooled_latency_us;
  std::vector<double> lag_ms;
  // Closed- and open-loop rounds interleave so that both sample the
  // whole run. Open-loop rounds get two thirds of the time: a tail
  // latency needs more rounds to settle than a throughput does.
  int closed_rounds = 0;
  int open_rounds = 0;
  std::vector<Digest> open_reference;
  double closed_s = 0.0;
  double open_s = 0.0;
  const Clock::time_point measure = Clock::now();
  while (closed_rounds < 3 || open_rounds < 3 ||
         SecondsSince(measure) < config.seconds) {
    const bool open = open_s < 2.0 * closed_s;
    RoundOptions o;
    o.open_loop = open;
    const Clock::time_point round_start = Clock::now();
    Round r = workload->RunRound(o);
    (open ? open_s : closed_s) += SecondsSince(round_start);
    workload->CheckRound(&r);
    // Open-loop rounds feed a prefix: the first one is their reference.
    if (open && open_rounds == 0) open_reference = r.digests;
    r.Check(r.digests == (open ? open_reference : reference.digests),
            std::string(open ? "open-loop" : "closed-loop") +
                " output differs from the first such round's");
    Absorb(r, &report);
    setup.push_back(r.setup_s);
    if (open) {
      pooled_latency_us.insert(pooled_latency_us.end(),
                               r.latency_us.begin(), r.latency_us.end());
      latencies.push_back(std::move(r.latency_us));
      lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
      ++open_rounds;
    } else {
      throughput.push_back(r.throughput());
      state_mb.push_back(static_cast<double>(r.peak_state_bytes) / 1e6);
      chunks.push_back(std::move(r.chunk_s));
      ++closed_rounds;
    }
  }

  // Best chunk times only where every round does the same work at the
  // same point of the feed; see Workload::deterministic_rounds.
  double round_s = 0.0;
  if (workload->deterministic_rounds()) {
    round_s = BestSumOfChunks(chunks);
    ++report.attempted;
    if (round_s <= 0.0) {
      ++report.failed;
      report.correct = false;
      report.lines.push_back(
          "FAILED: closed-loop rounds were cut into different chunks");
    }
  } else {
    const double median = Median(throughput);
    round_s = median > 0.0 ? static_cast<double>(reference.events) / median
                           : 0.0;
  }
  std::vector<double> best_latency_us = ElementwiseMin(latencies);
  ++report.attempted;
  if (best_latency_us.empty()) {
    ++report.failed;
    report.correct = false;
    report.lines.push_back(
        "FAILED: open-loop rounds delivered different match counts");
  }
  const Distribution latency = Summarize(best_latency_us);
  const Distribution pooled = Summarize(pooled_latency_us);
  const Distribution lag = Summarize(lag_ms);
  const double ok_ratio =
      1.0 - static_cast<double>(report.failed) /
                static_cast<double>(std::max<uint64_t>(1, report.attempted));

  report.metrics = {
      {"throughput_eps",
       round_s > 0.0 ? static_cast<double>(reference.events) / round_s : 0.0,
       "events/s",
       workload->deterministic_rounds() ? "closed loop, best chunk times"
                                        : "closed loop, median round"},
      {"latency_p50_us", latency.p50, "us", "open loop, best per match"},
      {"latency_p99_us", latency.p99, "us", "open loop, best per match"},
      {"setup_s", Median(setup), "s", "median of rounds"},
      {"peak_state_mb", Median(state_mb), "MB", ""},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
      {"ok_ops_ratio", ok_ratio, "ratio", ""},
  };
  report.lines.insert(
      report.lines.begin(),
      "workload " + name + "  seed " + std::to_string(config.seed) + "  " +
          std::to_string(closed_rounds) + " closed-loop + " +
          std::to_string(open_rounds) + " open-loop rounds of " +
          std::to_string(reference.events) + " events in " +
          Fmt("%.1f", SecondsSince(begin)) + " s");
  report.lines.push_back(
      "  latency: " + workload->latency_note() + "; each match's latency is "
      "its lowest over the " + std::to_string(open_rounds) +
      " open-loop rounds; " + std::to_string(latency.count) + " matches" +
      (latency.p99_supported ? "" : " (too few for a p99 with ten beyond it)"));
  report.lines.push_back(
      "  raw (host interference included): throughput median of rounds " +
      Fmt("%.0f", Median(throughput)) + " events/s; latency p50/p99 over "
      "all open-loop matches " + Fmt("%.1f", pooled.p50) + " / " +
      Fmt("%.1f", pooled.p99) + " us");
  std::string digests = "  output digests (sum/net per query):";
  for (const Digest& d : reference.digests) digests += " " + d.ToString();
  report.lines.push_back(digests);
  report.lines.push_back("  open-loop generator lag p99 " +
                         Fmt("%.3f", lag.p99) + " ms over " +
                         std::to_string(lag.count) + " dispatches");
  return report;
}

Report RunTraced(const std::string& selected, const RunConfig& config) {
  Report report;
  EnsureDir(config.work_dir);
  Tracer tracer(true);
  uint32_t run_id = 0;
  std::map<std::string, std::map<std::string, double>> layers;

  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> workload = MakeWorkload(name, config);
    Round reference = workload->RunRound(RoundOptions{});
    workload->CheckRound(&reference);
    Absorb(reference, &report);

    tracer.set_run(++run_id);
    const size_t first = tracer.spans().size();
    {
      ScopedSpan span(&tracer, "stats.StatsCollector");
      StatsCollector collector(workload->history(), workload->num_types());
    }
    RoundOptions traced;
    traced.tracer = &tracer;
    traced.probes = true;
    traced.restore_check = true;
    Round round = workload->RunRound(traced);
    workload->CheckRound(&round);
    CheckSameOutput(reference, &round, "traced");
    Absorb(round, &report);
    std::map<std::string, double>& layer = layers[name];
    layer = round.layer;
    DeriveLayers(tracer.spans(), first, round, &layer);

    if (name == "keyed_sharded") {
      RoundOptions one;
      one.num_threads = 1;
      Round single = workload->RunRound(one);
      CheckSameOutput(reference, &single, "1-thread");
      Absorb(single, &report);
      Round threaded = workload->RunRound(RoundOptions{});
      Absorb(threaded, &report);
      layer["parallel.speedup_1t"] =
          single.throughput() > 0.0
              ? threaded.throughput() / single.throughput()
              : 0.0;
    }
    if (name != selected) continue;

    // Paired rounds (metrics on, metrics off, traced) cancel slow drift
    // of the machine; the medians of the per-triplet ratios are reported.
    std::vector<double> off_ratio;
    std::vector<double> trace_ratio;
    const Clock::time_point start = Clock::now();
    while (off_ratio.size() < 3 || SecondsSince(start) < config.seconds * 0.5) {
      Round on = workload->RunRound(RoundOptions{});
      RoundOptions no_metrics;
      no_metrics.metrics = false;
      Round off = workload->RunRound(no_metrics);
      RoundOptions with_trace;
      with_trace.tracer = &tracer;
      tracer.set_run(++run_id);
      Round traced_round = workload->RunRound(with_trace);
      for (Round* r : {&on, &off, &traced_round}) {
        workload->CheckRound(r);
        CheckSameOutput(reference, r, "comparison");
        Absorb(*r, &report);
      }
      off_ratio.push_back(off.throughput() / on.throughput());
      trace_ratio.push_back(on.throughput() / traced_round.throughput());
    }
    layer["obs.metrics_off_ratio"] = Median(off_ratio);
    layer["trace.overhead"] = Median(trace_ratio);
    RoundOptions open;
    open.open_loop = true;
    open.tracer = &tracer;
    tracer.set_run(++run_id);
    Round open_round = workload->RunRound(open);
    workload->CheckRound(&open_round);
    Absorb(open_round, &report);
    layer["load.lag_p99_ms"] = Percentile(open_round.lag_ms, 0.99);
    report.lines.push_back(
        "traced run: " + std::to_string(off_ratio.size()) +
        " (metrics on, metrics off, traced) round triplets on " + name);
  }

  for (const LayerMetric& m : kLayerMetrics) {
    const std::string source = m.source[0] == '\0' ? selected : m.source;
    auto found = layers[source].find(m.name);
    Metric metric{m.name, 0.0, m.unit, "from " + source};
    if (found != layers[source].end()) {
      metric.value = found->second;
    } else {
      metric.note += " (not measured)";
      ++report.attempted;
      ++report.failed;
      report.correct = false;
      report.lines.push_back("FAILED: per-layer metric " + m.name +
                             " was not measured on " + source);
    }
    report.metrics.push_back(metric);
  }

  const std::string path = config.work_dir + "/trace-" + selected + "-seed" +
                           std::to_string(config.seed) + ".jsonl";
  ++report.attempted;
  if (tracer.Write(path)) {
    report.lines.push_back("span file: " + path + " (" +
                           std::to_string(tracer.spans().size()) + " spans)");
  } else {
    ++report.failed;
    report.correct = false;
    report.lines.push_back("FAILED: cannot write the span file " + path);
  }
  report.lines.insert(report.lines.begin(),
                      "traced run, workload " + selected + "  seed " +
                          std::to_string(config.seed) +
                          "; per-layer metrics come from the workload named "
                          "after each value");
  return report;
}

}  // namespace cepbench
