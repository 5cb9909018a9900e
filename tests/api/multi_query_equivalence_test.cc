// Multi-query equivalence: N queries registered on ONE CepService (one
// shared ingest path, one routing pass) must produce, per query, the
// byte-identical match fingerprint sequence and counters of N
// completely independent runtimes — at every worker thread count, with
// queries registered and deregistered mid-stream, and over async
// ingestion. The CrossTenantSharingTest half covers identical specs
// served by one engine set: each member must still be indistinguishable
// from a query running alone.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/cep_service.h"
#include "api/keyed_runtime.h"
#include "obs/pipeline_metrics.h"
#include "pattern/condition.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

struct Reference {
  std::vector<std::string> sequence;  // fingerprints in emission order
  EngineCounters counters;
  size_t num_partitions = 0;
};

std::vector<std::string> Sequence(const CollectingSink& sink) {
  std::vector<std::string> seq;
  seq.reserve(sink.matches.size());
  for (const Match& m : sink.matches) seq.push_back(m.Fingerprint());
  return seq;
}

void ExpectSameCounters(const EngineCounters& got, const EngineCounters& want,
                        const std::string& label) {
  EXPECT_EQ(got.events_processed, want.events_processed) << label;
  EXPECT_EQ(got.matches_emitted, want.matches_emitted) << label;
  EXPECT_EQ(got.instances_created, want.instances_created) << label;
  EXPECT_EQ(got.predicate_evals, want.predicate_evals) << label;
}

/// Runs one standalone keyed runtime over events [begin, end) of the
/// workload stream — the reference a service-registered query must
/// reproduce exactly.
Reference RunStandaloneKeyed(const KeyedWorkload& workload,
                             const std::string& algorithm, size_t begin,
                             size_t end) {
  CollectingSink sink;
  RuntimeOptions options;
  options.algorithm = algorithm;
  options.num_threads = 1;
  KeyedCepRuntime runtime(workload.pattern, workload.stream,
                          workload.registry.size(), options, &sink);
  runtime.OnBatch(workload.stream.events().data() + begin, end - begin);
  runtime.Finish();
  Reference ref;
  ref.sequence = Sequence(sink);
  ref.counters = runtime.TotalCounters();
  ref.num_partitions = runtime.num_partitions().value();
  return ref;
}

TEST(MultiQueryEquivalenceTest, NQueriesMatchNStandaloneRuntimes) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 11);
  const std::vector<std::string> algorithms = {"GREEDY", "TRIVIAL", "DP-LD"};

  std::vector<Reference> refs;
  for (const std::string& algorithm : algorithms) {
    refs.push_back(RunStandaloneKeyed(workload, algorithm, 0,
                                      workload.stream.size()));
    ASSERT_GT(refs.back().sequence.size(), 0u) << algorithm;
  }

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 64;  // force multiple batches per shard
    auto service = CepService::Create(options).value();

    std::vector<CollectingSink> sinks(algorithms.size());
    std::vector<QueryHandle> handles;
    for (size_t q = 0; q < algorithms.size(); ++q) {
      auto handle = service->Register(QuerySpec::Simple(workload.pattern)
                                          .Keyed()
                                          .WithAlgorithm(algorithms[q])
                                          .WithSink(&sinks[q]));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(*handle);
    }
    service->ProcessStream(workload.stream);
    service->Finish();

    for (size_t q = 0; q < algorithms.size(); ++q) {
      SCOPED_TRACE("query=" + algorithms[q]);
      EXPECT_EQ(Sequence(sinks[q]), refs[q].sequence);
      ExpectSameCounters(handles[q].counters().value(), refs[q].counters,
                         algorithms[q]);
      EXPECT_EQ(handles[q].num_partitions().value(), refs[q].num_partitions);
    }
  }
}

TEST(MultiQueryEquivalenceTest, MixedKeyedAndUnkeyedShareOneIngest) {
  // Short stream: the unkeyed query matches across partitions, which
  // grows combinatorially with duration.
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);

  // Standalone references: one keyed runtime, one unkeyed runtime.
  Reference keyed_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());

  CollectingSink unkeyed_ref_sink;
  StatsCollector collector(workload.stream, workload.registry.size());
  CepRuntime unkeyed_ref(workload.pattern,
                         collector.CollectForPattern(workload.pattern),
                         {.algorithm = "DP-LD"}, &unkeyed_ref_sink);
  unkeyed_ref.ProcessStream(workload.stream);
  unkeyed_ref.Finish();
  ASSERT_GT(keyed_ref.sequence.size(), 0u);
  ASSERT_GT(unkeyed_ref_sink.matches.size(), 0u);

  for (size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    auto service = CepService::Create(options).value();

    CollectingSink keyed_sink;
    CollectingSink unkeyed_sink;
    auto keyed = service->Register(QuerySpec::Simple(workload.pattern)
                                       .Keyed()
                                       .WithSink(&keyed_sink));
    auto unkeyed = service->Register(QuerySpec::Simple(workload.pattern)
                                         .WithAlgorithm("DP-LD")
                                         .WithSink(&unkeyed_sink));
    ASSERT_TRUE(keyed.ok());
    ASSERT_TRUE(unkeyed.ok());
    service->ProcessStream(workload.stream);
    service->Finish();

    EXPECT_EQ(Sequence(keyed_sink), keyed_ref.sequence);
    ExpectSameCounters(keyed->counters().value(), keyed_ref.counters,
                       "keyed");
    EXPECT_EQ(Sequence(unkeyed_sink), Sequence(unkeyed_ref_sink));
    ExpectSameCounters(unkeyed->counters().value(), unkeyed_ref.counters(),
                       "unkeyed");
  }
}

TEST(MultiQueryEquivalenceTest, MidStreamRegisterSeesOnlyTheSuffix) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 23);
  const size_t cut = workload.stream.size() / 2;
  Reference full_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  Reference suffix_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", cut, workload.stream.size());
  ASSERT_GT(suffix_ref.sequence.size(), 0u);

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 32;
    auto service = CepService::Create(options).value();

    CollectingSink full_sink;
    auto full = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("GREEDY")
                                      .WithSink(&full_sink));
    ASSERT_TRUE(full.ok());
    service->OnBatch(workload.stream.events().data(), cut);

    // Registered mid-stream: must see exactly events [cut, end).
    CollectingSink late_sink;
    auto late = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("TRIVIAL")
                                      .WithSink(&late_sink));
    ASSERT_TRUE(late.ok());
    service->OnBatch(workload.stream.events().data() + cut,
                     workload.stream.size() - cut);
    service->Finish();

    EXPECT_EQ(Sequence(full_sink), full_ref.sequence);
    ExpectSameCounters(full->counters().value(), full_ref.counters, "full");
    EXPECT_EQ(Sequence(late_sink), suffix_ref.sequence);
    ExpectSameCounters(late->counters().value(), suffix_ref.counters,
                       "late");
    EXPECT_EQ(late->num_partitions().value(), suffix_ref.num_partitions);
  }
}

TEST(MultiQueryEquivalenceTest, MidStreamDeregisterSeesOnlyThePrefix) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 29);
  const size_t cut = workload.stream.size() / 2;
  Reference prefix_ref = RunStandaloneKeyed(workload, "GREEDY", 0, cut);
  Reference full_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", 0, workload.stream.size());
  ASSERT_GT(prefix_ref.sequence.size(), 0u);

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 32;
    auto service = CepService::Create(options).value();

    CollectingSink doomed_sink;
    auto doomed = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithAlgorithm("GREEDY")
                                        .WithSink(&doomed_sink));
    CollectingSink full_sink;
    auto full = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithAlgorithm("TRIVIAL")
                                      .WithSink(&full_sink));
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(full.ok());

    service->OnBatch(workload.stream.events().data(), cut);
    // Deregistered mid-stream: must see exactly events [0, cut),
    // including its Finish-time (trailing-window) matches.
    ASSERT_TRUE(doomed->Deregister().ok());
    service->OnBatch(workload.stream.events().data() + cut,
                     workload.stream.size() - cut);
    service->Finish();

    EXPECT_EQ(Sequence(doomed_sink), prefix_ref.sequence);
    ExpectSameCounters(doomed->counters().value(), prefix_ref.counters,
                       "doomed");
    EXPECT_EQ(doomed->num_partitions().value(), prefix_ref.num_partitions);
    EXPECT_EQ(Sequence(full_sink), full_ref.sequence);
    ExpectSameCounters(full->counters().value(), full_ref.counters, "full");
  }
}

TEST(MultiQueryEquivalenceTest, AsyncIngestFansToEveryQuery) {
  // Two keyed queries over one async-ingested synthetic feed: each must
  // match its standalone ProcessStream reference (the KeyedEventSource
  // emits exactly the materialized workload sequence).
  KeyedWorkload workload = MakeKeyedWorkload(6, 5.0, 31);
  Reference greedy_ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  Reference trivial_ref =
      RunStandaloneKeyed(workload, "TRIVIAL", 0, workload.stream.size());

  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    auto service = CepService::Create(options).value();

    CollectingSink greedy_sink;
    CollectingSink trivial_sink;
    auto greedy = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithAlgorithm("GREEDY")
                                        .WithSink(&greedy_sink));
    auto trivial = service->Register(QuerySpec::Simple(workload.pattern)
                                         .Keyed()
                                         .WithAlgorithm("TRIVIAL")
                                         .WithSink(&trivial_sink));
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(trivial.ok());

    IngestResult result = service->ProcessSourceAsync(
        std::make_unique<KeyedEventSource>(6, 5.0, 31));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.events, workload.stream.size());
    service->Finish();

    EXPECT_EQ(Sequence(greedy_sink), greedy_ref.sequence);
    ExpectSameCounters(greedy->counters().value(), greedy_ref.counters,
                       "greedy");
    EXPECT_EQ(Sequence(trivial_sink), trivial_ref.sequence);
    ExpectSameCounters(trivial->counters().value(), trivial_ref.counters,
                       "trivial");
  }
}

TEST(MultiQueryEquivalenceTest, SixteenQueriesOneService) {
  // Scale check: 16 identical queries on one service all reproduce the
  // single-query reference — the fan-out is invisible in each query's
  // output.
  KeyedWorkload workload = MakeKeyedWorkload(6, 3.0, 37);
  Reference ref =
      RunStandaloneKeyed(workload, "GREEDY", 0, workload.stream.size());
  ASSERT_GT(ref.sequence.size(), 0u);

  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = 4;
  auto service = CepService::Create(options).value();

  constexpr size_t kQueries = 16;
  std::vector<CollectingSink> sinks(kQueries);
  std::vector<QueryHandle> handles;
  for (size_t q = 0; q < kQueries; ++q) {
    auto handle = service->Register(QuerySpec::Simple(workload.pattern)
                                        .Keyed()
                                        .WithSink(&sinks[q]));
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  service->ProcessStream(workload.stream);
  service->Finish();

  for (size_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE("query=" + std::to_string(q));
    EXPECT_EQ(Sequence(sinks[q]), ref.sequence);
    ExpectSameCounters(handles[q].counters().value(), ref.counters,
                       "query " + std::to_string(q));
  }
}

// ---- cross-tenant sharing --------------------------------------------------

/// SEQ(A, B, NOT C) with a.v < b.v. The trailing negation holds every
/// match until its window closes, so Finish — and a deregistration —
/// flushes pending matches: the part of a leaving member's output that
/// sharing must reproduce from a clone of the group's engines.
SimplePattern TrailingNegationPattern(const EventTypeRegistry& registry) {
  std::vector<EventSpec> events = {{registry.Find("A"), "a", false, false},
                                   {registry.Find("B"), "b", false, false},
                                   {registry.Find("C"), "c", true, false}};
  std::vector<ConditionPtr> conditions = {
      std::make_shared<AttrCompare>(0, 0, CmpOp::kLt, 1, 0)};
  return SimplePattern(OperatorKind::kSeq, std::move(events),
                       std::move(conditions), 0.2);
}

/// `base` with its slots but other conditions and window.
SimplePattern Reshaped(const SimplePattern& base,
                       std::vector<ConditionPtr> conditions, double window) {
  return SimplePattern(base.op(), base.events(), std::move(conditions),
                       window, base.strategy());
}

/// The execution hosts a registration can land on.
struct Host {
  bool keyed;
  size_t threads;
  std::string label;
};

const std::vector<Host>& AllHosts() {
  static const std::vector<Host> hosts = {{true, 1, "keyed, 1 thread"},
                                          {true, 2, "keyed, 2 threads"},
                                          {true, 4, "keyed, 4 threads"},
                                          {false, 1, "unkeyed inline"}};
  return hosts;
}

ServiceOptions OptionsFor(const KeyedWorkload& workload, size_t threads) {
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = threads;
  options.batch_size = 64;  // several batches per shard
  return options;
}

QuerySpec SpecFor(const SimplePattern& pattern, bool keyed,
                  CollectingSink* sink) {
  return QuerySpec::Simple(pattern).Keyed(keyed).WithAlgorithm("DP-LD").WithSink(
      sink);
}

/// Everything one registration exposes.
struct Observed {
  std::vector<std::string> sequence;
  EngineCounters counters;
  size_t num_partitions = 0;
  std::vector<std::string> plans;  // per partition (keyed) or per DNF leg
};

Observed Observe(const QueryHandle& handle, const CollectingSink& sink,
                 bool keyed, int num_partitions) {
  Observed out;
  out.sequence = Sequence(sink);
  out.counters = handle.counters().value();
  if (keyed) {
    out.num_partitions = handle.num_partitions().value();
    for (int p = 0; p < num_partitions; ++p) {
      StatusOr<EnginePlan> plan = handle.PlanFor(static_cast<uint32_t>(p));
      out.plans.push_back(plan.ok() ? plan->Describe() : "-");
    }
  } else {
    for (const EnginePlan& plan : handle.plans().value()) {
      out.plans.push_back(plan.Describe());
    }
  }
  return out;
}

/// One query alone on a fresh service on `host`, fed events [begin, end)
/// and finished: what every member must reproduce. `*flushed_at_finish`
/// (optional) receives how many matches Finish delivered.
Observed RunAlone(const KeyedWorkload& workload, const SimplePattern& pattern,
                  const Host& host, int num_partitions, size_t begin,
                  size_t end, size_t* flushed_at_finish = nullptr) {
  const bool keyed = host.keyed;
  auto service = CepService::Create(OptionsFor(workload, host.threads)).value();
  CollectingSink sink;
  QueryHandle handle =
      service->Register(SpecFor(pattern, keyed, &sink)).value();
  service->OnBatch(workload.stream.events().data() + begin, end - begin);
  const size_t before = sink.matches.size();
  service->Finish();
  if (flushed_at_finish != nullptr) {
    *flushed_at_finish = sink.matches.size() - before;
  }
  return Observe(handle, sink, keyed, num_partitions);
}

void ExpectSameObserved(const Observed& got, const Observed& want,
                        const std::string& label) {
  EXPECT_EQ(got.sequence, want.sequence) << label;
  ExpectSameCounters(got.counters, want.counters, label);
  EXPECT_EQ(got.counters.peak_total_bytes, want.counters.peak_total_bytes)
      << label;
  EXPECT_EQ(got.counters.peak_live_instances,
            want.counters.peak_live_instances)
      << label;
  EXPECT_EQ(got.num_partitions, want.num_partitions) << label;
  EXPECT_EQ(got.plans, want.plans) << label;
}

double SharedRegistrations(CepService& service) {
  return service.MetricsSnapshot().Value(
      metric_names::kServiceSharedRegistrations);
}

constexpr int kSharingPartitions = 6;

KeyedWorkload SharingWorkload() {
  return MakeKeyedWorkload(kSharingPartitions, 1.5, 41);
}

TEST(CrossTenantSharingTest, IdenticalSpecsShareAndEachMatchesStandalone) {
  KeyedWorkload workload = SharingWorkload();
  const SimplePattern pattern = TrailingNegationPattern(workload.registry);
  const size_t n = workload.stream.size();
  for (const Host& host : AllHosts()) {
    SCOPED_TRACE(host.label);
    const Observed alone =
        RunAlone(workload, pattern, host, kSharingPartitions, 0, n);
    ASSERT_GT(alone.sequence.size(), 0u);

    auto service = CepService::Create(OptionsFor(workload, host.threads))
                       .value();
    CollectingSink sink_a, sink_b, sink_other;
    QueryHandle a = service->Register(SpecFor(pattern, host.keyed, &sink_a)
                                          .WithName("tenant-a"))
                        .value();
    QueryHandle b = service->Register(SpecFor(pattern, host.keyed, &sink_b)
                                          .WithName("tenant-b"))
                        .value();
    // A different algorithm is a different plan: never shared.
    QueryHandle other =
        service
            ->Register(SpecFor(pattern, host.keyed, &sink_other)
                           .WithAlgorithm("GREEDY"))
            .value();
    EXPECT_EQ(SharedRegistrations(*service), 1.0);
    service->ProcessStream(workload.stream);
    EXPECT_EQ(SharedRegistrations(*service), 1.0);
    service->Finish();
    EXPECT_EQ(SharedRegistrations(*service), 0.0);

    ExpectSameObserved(Observe(a, sink_a, host.keyed, kSharingPartitions),
                       alone, "tenant-a");
    ExpectSameObserved(Observe(b, sink_b, host.keyed, kSharingPartitions),
                       alone, "tenant-b");
    EXPECT_EQ(Sequence(sink_other).size(), alone.sequence.size());
    EXPECT_EQ(other.counters().value().matches_emitted,
              alone.counters.matches_emitted);
  }
}

TEST(CrossTenantSharingTest, MidStreamIdenticalRegistrationDoesNotJoin) {
  KeyedWorkload workload = SharingWorkload();
  const SimplePattern pattern = TrailingNegationPattern(workload.registry);
  const size_t n = workload.stream.size();
  const size_t cut = n / 2;
  for (const Host& host : AllHosts()) {
    SCOPED_TRACE(host.label);
    auto service = CepService::Create(OptionsFor(workload, host.threads))
                       .value();
    CollectingSink early_sink, late_sink;
    QueryHandle early =
        service->Register(SpecFor(pattern, host.keyed, &early_sink)).value();
    service->OnBatch(workload.stream.events().data(), cut);
    // Identical spec, but the early query's engines already hold a
    // prefix the late one was never fed: it must start its own group.
    QueryHandle late =
        service->Register(SpecFor(pattern, host.keyed, &late_sink)).value();
    EXPECT_EQ(SharedRegistrations(*service), 0.0);
    service->OnBatch(workload.stream.events().data() + cut, n - cut);
    service->Finish();

    ExpectSameObserved(
        Observe(early, early_sink, host.keyed, kSharingPartitions),
        RunAlone(workload, pattern, host, kSharingPartitions, 0, n),
        "early");
    ExpectSameObserved(
        Observe(late, late_sink, host.keyed, kSharingPartitions),
        RunAlone(workload, pattern, host, kSharingPartitions, cut, n),
        "late");
  }
}

TEST(CrossTenantSharingTest, LeavingMemberGetsStandaloneDeregistration) {
  // Three members of one group: the first (the group's id and memory
  // owner) leaves at n/3, the third at 2n/3, the second stays to the
  // end. Each leaver must receive exactly a standalone deregistration's
  // output — Finish-time matches of the clones included — and the group
  // must keep serving the others untouched.
  KeyedWorkload workload = SharingWorkload();
  const SimplePattern pattern = TrailingNegationPattern(workload.registry);
  const size_t n = workload.stream.size();
  // Cut right after a B, so matches are pending at each cut on every
  // host (a C after the B would kill them).
  const TypeId b_type = workload.registry.Find("B");
  auto cut_after_b = [&](size_t from) {
    while (workload.stream.events()[from - 1]->type != b_type) ++from;
    return from;
  };
  const size_t cut1 = cut_after_b(n / 3);
  const size_t cut2 = cut_after_b(2 * n / 3);
  for (const Host& host : AllHosts()) {
    SCOPED_TRACE(host.label);
    size_t flushed1 = 0;
    size_t flushed2 = 0;
    const Observed first_ref = RunAlone(workload, pattern, host,
                                        kSharingPartitions, 0, cut1, &flushed1);
    const Observed third_ref = RunAlone(workload, pattern, host,
                                        kSharingPartitions, 0, cut2, &flushed2);
    const Observed stay_ref =
        RunAlone(workload, pattern, host, kSharingPartitions, 0, n);
    // The cuts leave matches pending, so the clones have work to do.
    ASSERT_GT(flushed1, 0u);
    ASSERT_GT(flushed2, 0u);

    auto service = CepService::Create(OptionsFor(workload, host.threads))
                       .value();
    CollectingSink sinks[3];
    std::vector<QueryHandle> handles;
    for (CollectingSink& sink : sinks) {
      handles.push_back(
          service->Register(SpecFor(pattern, host.keyed, &sink)).value());
    }
    EXPECT_EQ(SharedRegistrations(*service), 2.0);
    const EventPtr* events = workload.stream.events().data();
    service->OnBatch(events, cut1);
    Status left = handles[0].Deregister();
    ASSERT_TRUE(left.ok()) << left.ToString();
    EXPECT_EQ(SharedRegistrations(*service), 1.0);
    service->OnBatch(events + cut1, cut2 - cut1);
    ASSERT_TRUE(handles[2].Deregister().ok());
    EXPECT_EQ(SharedRegistrations(*service), 0.0);
    service->OnBatch(events + cut2, n - cut2);
    service->Finish();

    ExpectSameObserved(
        Observe(handles[0], sinks[0], host.keyed, kSharingPartitions),
        first_ref, "first (left at n/3)");
    ExpectSameObserved(
        Observe(handles[1], sinks[1], host.keyed, kSharingPartitions),
        stay_ref, "second (stayed)");
    ExpectSameObserved(
        Observe(handles[2], sinks[2], host.keyed, kSharingPartitions),
        third_ref, "third (left at 2n/3)");
  }
}

TEST(CrossTenantSharingTest, SpecsDifferingInOneKeyFieldNeverShare) {
  KeyedWorkload workload = SharingWorkload();
  const SimplePattern& base = workload.pattern;  // SEQ(A,B,C), a.v < c.v
  const ConditionPtr& join = base.conditions()[0];
  const SimplePattern offset_pattern = Reshaped(
      base, {std::make_shared<AttrCompare>(0, 0, CmpOp::kLt, 2, 0, 0.5)},
      base.window());
  const SimplePattern window_pattern =
      Reshaped(base, base.conditions(), base.window() * 0.9);
  // Rebuilt from scratch, condition included: equal by value, so shared.
  const SimplePattern rebuilt_pattern = Reshaped(
      base, {std::make_shared<AttrCompare>(0, 0, CmpOp::kLt, 2, 0)},
      base.window());
  ASSERT_NE(join, rebuilt_pattern.conditions()[0]);
  PatternStats stats =
      StatsCollector(workload.stream, workload.registry.size())
          .CollectForPattern(base);

  CollectingSink sink;
  auto keyed = [&](const SimplePattern& pattern) {
    return QuerySpec::Simple(pattern).Keyed().WithAlgorithm("DP-LD").WithSink(
        &sink);
  };
  auto unkeyed = [&](const SimplePattern& pattern) {
    return QuerySpec::Simple(pattern).WithAlgorithm("DP-LD").WithSink(&sink);
  };
  struct Variant {
    std::string label;
    QuerySpec first;
    QuerySpec second;
    bool shares;
  };
  const std::vector<Variant> variants = {
      {"identical", keyed(base), keyed(base), true},
      {"name only", keyed(base), keyed(base).WithName("other"), true},
      {"callback instead of sink", keyed(base),
       QuerySpec::Simple(base).Keyed().WithAlgorithm("DP-LD").WithCallback(
           [](const Match&) {}),
       true},
      {"seed equal to the default", keyed(base), keyed(base).WithSeed(7),
       true},
      {"condition rebuilt by value", keyed(base), keyed(rebuilt_pattern),
       true},
      {"algorithm", keyed(base), keyed(base).WithAlgorithm("GREEDY"), false},
      {"seed", keyed(base), keyed(base).WithSeed(99), false},
      {"latency alpha", keyed(base), keyed(base).WithLatencyAlpha(0.25),
       false},
      {"window", keyed(base), keyed(window_pattern), false},
      {"condition offset", keyed(base), keyed(offset_pattern), false},
      {"delta flag", keyed(base), keyed(base.WithDeltaInput()), false},
      {"keyed flag", keyed(base), unkeyed(base), false},
      {"stats override", unkeyed(base), unkeyed(base).WithStats(stats),
       false},
      {"stats override on both", unkeyed(base).WithStats(stats),
       unkeyed(base).WithStats(stats), false},
  };
  for (size_t threads : {1u, 2u}) {
    for (const Variant& variant : variants) {
      SCOPED_TRACE(variant.label + ", threads=" + std::to_string(threads));
      auto service = CepService::Create(OptionsFor(workload, threads)).value();
      ASSERT_TRUE(service->Register(variant.first).ok());
      ASSERT_TRUE(service->Register(variant.second).ok());
      EXPECT_EQ(SharedRegistrations(*service), variant.shares ? 1.0 : 0.0);
    }
  }
}

TEST(CrossTenantSharingTest, CustomConditionSharesOnlyByPointer) {
  KeyedWorkload workload = SharingWorkload();
  const SimplePattern& base = workload.pattern;
  auto less = [](const Event& l, const Event& r) {
    return l.Attr(0) < r.Attr(0);
  };
  auto custom = [&] {
    return std::make_shared<CustomCondition>(
        0, 2, less, std::numeric_limits<double>::quiet_NaN(), "a.v < c.v");
  };
  const SimplePattern first = Reshaped(base, {custom()}, base.window());
  const SimplePattern same_pointer = first;  // copies share the ConditionPtr
  const SimplePattern same_text = Reshaped(base, {custom()}, base.window());

  for (const auto& [other, shares] :
       std::vector<std::pair<SimplePattern, bool>>{{same_pointer, true},
                                                   {same_text, false}}) {
    SCOPED_TRACE(shares ? "same pointer" : "equal function, new object");
    auto service = CepService::Create(OptionsFor(workload, 2)).value();
    CollectingSink sink_a, sink_b;
    QueryHandle a = service->Register(SpecFor(first, true, &sink_a)).value();
    QueryHandle b = service->Register(SpecFor(other, true, &sink_b)).value();
    EXPECT_EQ(SharedRegistrations(*service), shares ? 1.0 : 0.0);
    service->ProcessStream(workload.stream);
    service->Finish();
    // Shared or not, both see the same matches.
    EXPECT_EQ(Sequence(sink_a), Sequence(sink_b));
    ExpectSameCounters(a.counters().value(), b.counters().value(), "custom");
  }
}

}  // namespace
}  // namespace cepjoin
