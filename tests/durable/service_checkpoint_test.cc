// End-to-end durability of CepService: checkpoint at arbitrary cut
// points of a keyed delta workload (inserts + retractions), "crash" (the
// service is abandoned without Finish), restore into a fresh service,
// and replay the tail from the recorded source positions. The full
// drained match sequence — emissions AND revocations, in order, by
// fingerprint — must be byte-identical to a run that never crashed, at
// 1, 2, and 4 shard threads. Plus the recovery-surface contracts:
// NotFound on a missing directory, FailedPrecondition on a mismatched
// registration sequence, fell_back reporting when the newest snapshot is
// corrupt, and the write-behind CheckpointCoordinator's policy. Groups
// of identical queries sharing one engine set (with a member leaving
// mid-stream) must recover the same way, also when the replayed
// registrations would group them differently from the checkpointed run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/cep_service.h"
#include "common/rng.h"
#include "durable/checkpoint_coordinator.h"
#include "durable/checkpoint_store.h"
#include "durable/fault_injector.h"
#include "durable/snapshot_codec.h"
#include "durable/snapshot_io.h"
#include "event/partition_sequencer.h"
#include "event/retraction_ledger.h"
#include "event/stream_source.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

// ---------------------------------------------------------------------
// Workload: the keyed A/B/C join stream with every 3rd eligible event
// retracted shortly after it occurred (same construction as the engine
// retraction-equivalence suite).

struct DeltaWorkload {
  EventTypeRegistry registry;
  SimplePattern pattern;
  EventStream history;  // insert-only base: statistics source
  EventStream delta;    // inserts + interleaved retractions
};

DeltaWorkload MakeDeltaWorkload(uint64_t seed) {
  // Kept small on purpose: the unkeyed skip-till-any query is fed the
  // whole stream in one engine, and its match count grows superlinearly
  // with stream duration.
  KeyedWorkload base = MakeKeyedWorkload(/*num_partitions=*/4,
                                         /*duration=*/0.8, seed);
  DeltaWorkload out{std::move(base.registry),
                    base.pattern.WithDeltaInput(),
                    {},
                    {}};

  using Key = std::tuple<TypeId, uint32_t, Timestamp>;
  const std::vector<EventPtr>& events = base.stream.events();
  std::map<Key, size_t> last_of_key;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    last_of_key[Key(e.type, e.partition, e.ts)] = i;
  }
  std::vector<Event> retractions;
  int eligible = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = *events[i];
    // Only last occurrences of a (type, partition, ts) key are uniquely
    // addressable retraction targets (LIFO ledger resolution).
    if (last_of_key.at(Key(e.type, e.partition, e.ts)) != i) continue;
    if (eligible++ % 3 != 0) continue;
    Event r;
    r.type = e.type;
    r.partition = e.partition;
    r.polarity = -1;
    r.ts = e.ts + 0.3;
    r.target_ts = e.ts;
    retractions.push_back(r);
  }

  out.delta.EnableRetractions();
  size_t j = 0;
  for (const EventPtr& e : events) {
    while (j < retractions.size() && retractions[j].ts < e->ts) {
      out.delta.Append(retractions[j++]);
    }
    Event insert = *e;
    insert.serial = 0;
    insert.partition_seq = 0;
    out.delta.Append(insert);
    Event history_copy = insert;
    out.history.Append(history_copy);
  }
  while (j < retractions.size()) out.delta.Append(retractions[j++]);
  return out;
}

// Polarity-tagged fingerprint drain, in delivery order. Serials are
// preserved across restore (the merge state is checkpointed and the
// tail replays with identical serials), so Fingerprint comparison is
// exact.
std::vector<std::string> Drain(const CollectingSink& sink) {
  std::vector<std::string> out;
  out.reserve(sink.matches.size());
  for (const Match& m : sink.matches) {
    out.push_back((m.IsRevocation() ? "-" : "+") + m.Fingerprint());
  }
  return out;
}

struct Session {
  std::unique_ptr<CepService> service;
  CollectingSink keyed_sink;
  CollectingSink unkeyed_sink;
};

// One keyed query (partitioned or sharded by thread count) plus one
// unkeyed query, both fed from the same attached source.
Session MakeSession(const DeltaWorkload& workload, size_t num_threads) {
  Session s;
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  options.num_threads = num_threads;
  s.service = CepService::Create(options).value();
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(workload.pattern)
                                      .WithName("keyed")
                                      .Keyed()
                                      .WithSink(&s.keyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service
                       ->Register(QuerySpec::Simple(workload.pattern)
                                      .WithName("unkeyed")
                                      .WithSink(&s.unkeyed_sink))
                       .status());
  CEPJOIN_CHECK_OK(s.service->AttachSource(
      std::make_unique<EventStreamSource>(&workload.delta)));
  return s;
}

struct RunResult {
  std::vector<std::string> keyed;
  std::vector<std::string> unkeyed;
};

RunResult RunUninterrupted(const DeltaWorkload& workload,
                           size_t num_threads) {
  Session s = MakeSession(workload, num_threads);
  auto fed = s.service->PumpAttachedSources();
  CEPJOIN_CHECK_OK(fed.status());
  s.service->Finish();
  return {Drain(s.keyed_sink), Drain(s.unkeyed_sink)};
}

class ServiceCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string FreshDir(const std::string& tag) {
    std::string dir =
        ::testing::TempDir() + "/svc_ckpt_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        tag;
    std::filesystem::remove_all(dir);  // stale state from a prior run
    return dir;
  }
};

TEST_F(ServiceCheckpointTest, CrashRecoveryIsEquivalentAtEveryThreadCount) {
  DeltaWorkload workload = MakeDeltaWorkload(/*seed=*/11);
  const size_t total = workload.delta.size();
  ASSERT_GT(total, 100u);

  for (size_t num_threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    RunResult baseline = RunUninterrupted(workload, num_threads);
    ASSERT_FALSE(baseline.keyed.empty());
    ASSERT_FALSE(baseline.unkeyed.empty());

    // Kill points: a handful of random cuts plus the boundaries.
    Rng rng(91 + num_threads);
    std::vector<size_t> cuts = {0, total / 2, total - 1};
    for (int i = 0; i < 2; ++i) {
      cuts.push_back(static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(total) - 2)));
    }

    for (size_t cut : cuts) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      const std::string dir =
          FreshDir(std::to_string(num_threads) + "_" + std::to_string(cut));

      // Run 1: pump to the cut, checkpoint, pump a little further (work
      // that the crash will lose), then abandon the service un-Finished.
      std::vector<std::string> keyed_prefix, unkeyed_prefix;
      {
        Session s1 = MakeSession(workload, num_threads);
        if (cut > 0) {
          auto fed = s1.service->PumpAttachedSources(cut);
          ASSERT_TRUE(fed.ok()) << fed.status().ToString();
          ASSERT_EQ(fed.value(), cut);
        }
        ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
        // Matches already delivered to the sinks at the cut are the
        // crash-surviving prefix (sharded queries buffer until Finish,
        // so theirs is empty — those matches live in the checkpoint).
        keyed_prefix = Drain(s1.keyed_sink);
        unkeyed_prefix = Drain(s1.unkeyed_sink);
        auto lost = s1.service->PumpAttachedSources(40);
        ASSERT_TRUE(lost.ok());
      }  // crash: no Finish, destructors only

      // Run 2: fresh service, same registration sequence, fresh source
      // over the same stream; restore + tail replay.
      Session s2 = MakeSession(workload, num_threads);
      auto report = s2.service->RestoreFrom(dir);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report->fell_back);
      EXPECT_GT(report->checkpoint_seq, 0u);
      auto fed = s2.service->PumpAttachedSources();
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
      s2.service->Finish();

      std::vector<std::string> keyed = keyed_prefix;
      for (std::string& tag : Drain(s2.keyed_sink)) {
        keyed.push_back(std::move(tag));
      }
      std::vector<std::string> unkeyed = unkeyed_prefix;
      for (std::string& tag : Drain(s2.unkeyed_sink)) {
        unkeyed.push_back(std::move(tag));
      }
      EXPECT_EQ(keyed, baseline.keyed);
      EXPECT_EQ(unkeyed, baseline.unkeyed);
    }
  }
}

TEST_F(ServiceCheckpointTest, RestoreFromMissingDirectoryIsNotFound) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  Session s = MakeSession(workload, 1);
  const std::string dir = FreshDir("absent") + "/nope";
  auto report = s.service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  EXPECT_NE(report.status().message().find(dir), std::string::npos);
}

TEST_F(ServiceCheckpointTest, CheckpointToCreatesTheDirectory) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  Session s = MakeSession(workload, 1);
  const std::string dir = FreshDir("made") + "/a/b";
  ASSERT_FALSE(DirectoryExists(dir));
  ASSERT_TRUE(s.service->CheckpointTo(dir).ok());
  EXPECT_TRUE(DirectoryExists(dir));
}

TEST_F(ServiceCheckpointTest, MismatchedRegistrationIsFailedPrecondition) {
  DeltaWorkload workload = MakeDeltaWorkload(5);
  const std::string dir = FreshDir("mismatch");
  {
    Session s1 = MakeSession(workload, 1);
    ASSERT_TRUE(s1.service->PumpAttachedSources(50).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
  }
  // Same shape, different query name: the registration-replay contract
  // is violated and restore must say so instead of loading state into
  // the wrong query.
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  auto service = CepService::Create(options).value();
  CollectingSink sink_a, sink_b;
  ASSERT_TRUE(service
                  ->Register(QuerySpec::Simple(workload.pattern)
                                 .WithName("other")
                                 .Keyed()
                                 .WithSink(&sink_a))
                  .ok());
  ASSERT_TRUE(service
                  ->Register(QuerySpec::Simple(workload.pattern)
                                 .WithName("unkeyed")
                                 .WithSink(&sink_b))
                  .ok());
  ASSERT_TRUE(service
                  ->AttachSource(
                      std::make_unique<EventStreamSource>(&workload.delta))
                  .ok());
  auto report = service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceCheckpointTest, VersionOnePayloadIsDataLoss) {
  // A well-formed checkpoint in the version-1 layout, whose ledger was
  // a sorted list of per-key serial stacks: restore must refuse it by
  // version instead of misreading the ledger section.
  DeltaWorkload workload = MakeDeltaWorkload(5);
  const std::string dir = FreshDir("v1");
  EngineStateWriter outer;
  SnapshotWriter& p = outer.payload();
  p.U32(1);  // payload version
  p.U64(2);  // queries ever registered
  p.U8(0);   // single-threaded host
  p.U8(1);   // attached-source state follows
  p.U64(1);  // next merge serial
  PartitionSequencer().SaveTo(&p);
  p.U8(1);   // ledger present: one key, (type, partition, ts bits),
  p.U64(1);  // a stack of depth 1 holding serial 0
  p.U32(0);
  p.U32(0);
  p.U64(0);
  p.U64(1);
  p.U64(0);
  p.U64(1);  // one attached source: positional, offset 0, not exhausted
  p.U8(1);
  p.U64(0);
  p.U8(0);
  p.U64(0);  // no query sections
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.WriteCheckpoint(outer.Finish()).ok());
  }
  Session s = MakeSession(workload, 1);
  auto report = s.service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(report.status().message().find("version 1"), std::string::npos)
      << report.status().message();
}

TEST_F(ServiceCheckpointTest, CorruptNewestCheckpointFallsBackAndReplays) {
  DeltaWorkload workload = MakeDeltaWorkload(7);
  const size_t total = workload.delta.size();
  const std::string dir = FreshDir("fallback");
  RunResult baseline = RunUninterrupted(workload, 1);

  {
    Session s1 = MakeSession(workload, 1);
    ASSERT_TRUE(s1.service->PumpAttachedSources(total / 3).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
    ASSERT_TRUE(s1.service->PumpAttachedSources(total / 3).ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
  }
  // Rot the newest snapshot on disk; recovery must fall back to the
  // first checkpoint and the longer tail replay must still converge to
  // the baseline.
  const std::string newest = CheckpointStore::SnapshotPath(dir, 2);
  std::string bytes = ReadFileToString(newest).value();
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Session s2 = MakeSession(workload, 1);
  // The first run delivered matches up to the FIRST checkpoint before
  // we corrupted the second; replay re-delivers everything after it.
  // Reconstruct the prefix by running a fresh session to the same cut.
  std::vector<std::string> keyed_prefix, unkeyed_prefix;
  {
    Session ref = MakeSession(workload, 1);
    ASSERT_TRUE(ref.service->PumpAttachedSources(total / 3).ok());
    keyed_prefix = Drain(ref.keyed_sink);
    unkeyed_prefix = Drain(ref.unkeyed_sink);
  }
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->fell_back);
  EXPECT_EQ(report->checkpoint_seq, 1u);
  EXPECT_FALSE(report->detail.empty());
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();

  std::vector<std::string> keyed = keyed_prefix;
  for (std::string& t : Drain(s2.keyed_sink)) keyed.push_back(std::move(t));
  std::vector<std::string> unkeyed = unkeyed_prefix;
  for (std::string& t : Drain(s2.unkeyed_sink)) {
    unkeyed.push_back(std::move(t));
  }
  EXPECT_EQ(keyed, baseline.keyed);
  EXPECT_EQ(unkeyed, baseline.unkeyed);
}

TEST_F(ServiceCheckpointTest, CoordinatorWritesBehindAndEnforcesPolicy) {
  DeltaWorkload workload = MakeDeltaWorkload(13);
  const std::string dir = FreshDir("coord");
  Session s = MakeSession(workload, 2);

  CheckpointOptions options;
  options.dir = dir;
  options.min_watermark_advance = 0.5;
  options.metrics = s.service->metrics_registry();
  CheckpointCoordinator coordinator(s.service.get(), options);
  ASSERT_TRUE(coordinator.Start().ok());

  double watermark = 0.0;
  uint64_t accepted = 0;
  while (true) {
    auto fed = s.service->PumpAttachedSources(64);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    if (fed.value() == 0) break;
    watermark += 0.1;  // ~6 policy-eligible cuts over the run
    auto cut = coordinator.MaybeCheckpoint(watermark);
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    if (cut.value()) ++accepted;
  }
  ASSERT_TRUE(coordinator.CheckpointNow(watermark).ok());
  ASSERT_TRUE(coordinator.Stop().ok());
  // The 0.5 advance policy admits a fraction of the 0.1-step calls; the
  // final CheckpointNow bypasses it.
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(coordinator.published(), accepted + 1);

  // The published chain is restorable mid-run state.
  Session s2 = MakeSession(workload, 2);
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();

  // Second MaybeCheckpoint in a row without watermark movement: policy
  // skip, not an error.
  CheckpointCoordinator again(s.service.get(),
                              {dir, /*min_watermark_advance=*/10.0, nullptr});
  ASSERT_TRUE(again.Start().ok());
  auto first = again.MaybeCheckpoint(1.0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  auto second = again.MaybeCheckpoint(1.5);  // advance 0.5 < 10.0
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value());
  ASSERT_TRUE(again.Stop().ok());
}

TEST_F(ServiceCheckpointTest, InsertOnlyWorkloadRoundtrips) {
  // The ledger-free path: no retractions anywhere, checkpoint mid-way,
  // restore, replay — same equivalence contract.
  KeyedWorkload base = MakeKeyedWorkload(4, 1.0, 3);
  DeltaWorkload workload{std::move(base.registry), std::move(base.pattern), {},
                         {}};
  for (const EventPtr& e : base.stream.events()) {
    Event copy = *e;
    copy.serial = 0;
    copy.partition_seq = 0;
    workload.delta.Append(copy);
    Event history_copy = copy;
    workload.history.Append(history_copy);
  }
  RunResult baseline = RunUninterrupted(workload, 2);
  const std::string dir = FreshDir("insert_only");

  std::vector<std::string> keyed, unkeyed;
  {
    Session s1 = MakeSession(workload, 2);
    ASSERT_TRUE(s1.service->PumpAttachedSources(workload.delta.size() / 2)
                    .ok());
    ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
    // Inline-fed matches already delivered at the cut survive only in
    // the sink; sharded-query matches ride in the checkpoint instead.
    keyed = Drain(s1.keyed_sink);
    unkeyed = Drain(s1.unkeyed_sink);
  }
  Session s2 = MakeSession(workload, 2);
  auto report = s2.service->RestoreFrom(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
  s2.service->Finish();
  for (std::string& tag : Drain(s2.keyed_sink)) keyed.push_back(std::move(tag));
  for (std::string& tag : Drain(s2.unkeyed_sink)) {
    unkeyed.push_back(std::move(tag));
  }
  EXPECT_EQ(keyed, baseline.keyed);
  EXPECT_EQ(unkeyed, baseline.unkeyed);
}

// ---------------------------------------------------------------------
// Cross-tenant sharing under checkpoint/restore: two identical keyed
// queries (one group) and two identical unkeyed queries (another), with
// one member of each leaving mid-stream — either the later member or the
// one that formed the group.

struct SharedSession {
  std::unique_ptr<CepService> service;
  // keyed a/b, unkeyed a/b.
  CollectingSink sinks[4];
  std::vector<QueryHandle> handles;
};

SharedSession MakeSharedSession(const DeltaWorkload& workload,
                                size_t num_threads) {
  SharedSession s;
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  options.num_threads = num_threads;
  s.service = CepService::Create(options).value();
  const char* names[4] = {"keyed-a", "keyed-b", "unkeyed-a", "unkeyed-b"};
  for (int q = 0; q < 4; ++q) {
    s.handles.push_back(s.service
                            ->Register(QuerySpec::Simple(workload.pattern)
                                           .WithName(names[q])
                                           .Keyed(q < 2)
                                           .WithSink(&s.sinks[q]))
                            .value());
  }
  CEPJOIN_CHECK_OK(s.service->AttachSource(
      std::make_unique<EventStreamSource>(&workload.delta)));
  return s;
}

// Member `leaver` (0 = a, the group's forming member; 1 = b) of both
// groups deregisters.
void Leave(SharedSession& s, int leaver) {
  CEPJOIN_CHECK_OK(s.handles[leaver].Deregister());
  CEPJOIN_CHECK_OK(s.handles[2 + leaver].Deregister());
}

void Pump(CepService* service, size_t n) {
  if (n == 0) return;
  auto fed = service->PumpAttachedSources(n);
  CEPJOIN_CHECK_OK(fed.status());
  CEPJOIN_CHECK_EQ(fed.value(), n);
}

TEST_F(ServiceCheckpointTest, SharedGroupCrashRecoveryAtEveryThreadCount) {
  DeltaWorkload workload = MakeDeltaWorkload(/*seed=*/17);
  const size_t total = workload.delta.size();
  const size_t leave = total / 2;
  for (size_t num_threads : {1u, 2u, 4u}) {
    for (int leaver : {1, 0}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " leaver=" + std::to_string(leaver));
      std::vector<std::string> baseline[4];
      {
        SharedSession s = MakeSharedSession(workload, num_threads);
        Pump(s.service.get(), leave);
        Leave(s, leaver);
        ASSERT_TRUE(s.service->PumpAttachedSources().ok());
        s.service->Finish();
        for (int q = 0; q < 4; ++q) baseline[q] = Drain(s.sinks[q]);
      }
      ASSERT_FALSE(baseline[0].empty());
      ASSERT_FALSE(baseline[2].empty());
      bool revoked = false;
      for (const std::string& tag : baseline[0]) revoked |= tag[0] == '-';
      ASSERT_TRUE(revoked) << "the workload must exercise revocations";

      // A cut before, at and after the departure (the forming member's
      // departure only before and after, to bound the suite's time).
      std::vector<size_t> cuts = {total / 4, 3 * total / 4};
      if (leaver == 1) cuts.push_back(leave);
      for (size_t cut : cuts) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        const std::string dir =
            FreshDir(std::to_string(num_threads) + "_" +
                     std::to_string(leaver) + "_" + std::to_string(cut));
        std::vector<std::string> prefix[4];
        {
          SharedSession s1 = MakeSharedSession(workload, num_threads);
          Pump(s1.service.get(), std::min(cut, leave));
          if (cut >= leave) {
            Leave(s1, leaver);
            Pump(s1.service.get(), cut - leave);
          }
          ASSERT_TRUE(s1.service->CheckpointTo(dir).ok());
          for (int q = 0; q < 4; ++q) prefix[q] = Drain(s1.sinks[q]);
          ASSERT_TRUE(s1.service->PumpAttachedSources(40).ok());
        }  // crash

        // Replay the registration sequence, deregistrations before the
        // cut included, then restore and pump the tail.
        SharedSession s2 = MakeSharedSession(workload, num_threads);
        if (cut >= leave) Leave(s2, leaver);
        auto report = s2.service->RestoreFrom(dir);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        if (cut < leave) {
          Pump(s2.service.get(), leave - cut);
          Leave(s2, leaver);
        }
        ASSERT_TRUE(s2.service->PumpAttachedSources().ok());
        s2.service->Finish();
        for (int q = 0; q < 4; ++q) {
          SCOPED_TRACE("query " + std::to_string(q));
          std::vector<std::string> got = prefix[q];
          for (std::string& tag : Drain(s2.sinks[q])) {
            got.push_back(std::move(tag));
          }
          EXPECT_EQ(got, baseline[q]);
        }
      }
    }
  }
}

// Six identical-pattern queries, alternately keyed and unkeyed: q0/q1
// registered up front, q2..q5 after `join` events (so q2/q4 and q3/q5
// form two new groups apart from q0 and q1), and q4 (a joiner) and q3
// (a forming member) leaving after `leave` events.
struct StaggeredSession {
  std::unique_ptr<CepService> service;
  CollectingSink sinks[6];
  std::vector<QueryHandle> handles;
};

std::unique_ptr<StaggeredSession> MakeStaggeredSession(
    const DeltaWorkload& workload, size_t num_threads) {
  auto s = std::make_unique<StaggeredSession>();
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  options.num_threads = num_threads;
  s->service = CepService::Create(options).value();
  CEPJOIN_CHECK_OK(s->service->AttachSource(
      std::make_unique<EventStreamSource>(&workload.delta)));
  return s;
}

void RegisterStaggered(StaggeredSession& s, const DeltaWorkload& workload,
                       int from, int to) {
  for (int q = from; q < to; ++q) {
    s.handles.push_back(s.service
                            ->Register(QuerySpec::Simple(workload.pattern)
                                           .WithName("q" + std::to_string(q))
                                           .Keyed(q % 2 == 0)
                                           .WithSink(&s.sinks[q]))
                            .value());
  }
}

void LeaveStaggered(StaggeredSession& s) {
  CEPJOIN_CHECK_OK(s.handles[4].Deregister());
  CEPJOIN_CHECK_OK(s.handles[3].Deregister());
}

TEST_F(ServiceCheckpointTest, RestoreSplitsGroupsTheReplayMerges) {
  // The replay registers every query before the first event, so it
  // groups all identical ones; the checkpointed run served them from
  // three engine sets per host kind. Restore must re-form the
  // checkpoint's groups (including a departed member's place in its
  // group, which decides who receives the group's buffered matches).
  DeltaWorkload workload = MakeDeltaWorkload(/*seed=*/23);
  const size_t total = workload.delta.size();
  const size_t join = total / 4;
  const size_t leave = total / 2;
  for (size_t num_threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    std::vector<std::string> baseline[6];
    {
      auto s = MakeStaggeredSession(workload, num_threads);
      RegisterStaggered(*s, workload, 0, 2);
      Pump(s->service.get(), join);
      RegisterStaggered(*s, workload, 2, 6);
      Pump(s->service.get(), leave - join);
      LeaveStaggered(*s);
      ASSERT_TRUE(s->service->PumpAttachedSources().ok());
      s->service->Finish();
      for (int q = 0; q < 6; ++q) baseline[q] = Drain(s->sinks[q]);
    }
    for (int q = 0; q < 6; ++q) ASSERT_FALSE(baseline[q].empty()) << q;

    for (size_t cut : {(join + leave) / 2, (leave + total) / 2}) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      const std::string dir =
          FreshDir(std::to_string(num_threads) + "_" + std::to_string(cut));
      std::vector<std::string> prefix[6];
      {
        auto s1 = MakeStaggeredSession(workload, num_threads);
        RegisterStaggered(*s1, workload, 0, 2);
        Pump(s1->service.get(), join);
        RegisterStaggered(*s1, workload, 2, 6);
        Pump(s1->service.get(), std::min(cut, leave) - join);
        if (cut >= leave) {
          LeaveStaggered(*s1);
          Pump(s1->service.get(), cut - leave);
        }
        ASSERT_TRUE(s1->service->CheckpointTo(dir).ok());
        for (int q = 0; q < 6; ++q) prefix[q] = Drain(s1->sinks[q]);
        ASSERT_TRUE(s1->service->PumpAttachedSources(40).ok());
      }  // crash

      auto s2 = MakeStaggeredSession(workload, num_threads);
      RegisterStaggered(*s2, workload, 0, 6);
      if (cut >= leave) LeaveStaggered(*s2);
      auto report = s2->service->RestoreFrom(dir);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      if (cut < leave) {
        Pump(s2->service.get(), leave - cut);
        LeaveStaggered(*s2);
      }
      ASSERT_TRUE(s2->service->PumpAttachedSources().ok());
      s2->service->Finish();
      for (int q = 0; q < 6; ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        std::vector<std::string> got = prefix[q];
        for (std::string& tag : Drain(s2->sinks[q])) {
          got.push_back(std::move(tag));
        }
        EXPECT_EQ(got, baseline[q]);
      }
    }
  }
}

TEST_F(ServiceCheckpointTest, RestoreRefusesGroupOfDifferentSpecs) {
  // Two identical queries shared one engine set at the checkpoint; the
  // replay registers the second with another seed under the same name.
  // No grouping of this service can reproduce the checkpoint's.
  DeltaWorkload workload = MakeDeltaWorkload(5);
  const std::string dir = FreshDir("specs");
  ServiceOptions options;
  options.history = &workload.history;
  options.num_types = workload.registry.size();
  auto spec = [&](const char* name, CollectingSink* sink) {
    return QuerySpec::Simple(workload.pattern)
        .WithName(name)
        .Keyed()
        .WithSink(sink);
  };
  CollectingSink a1, b1, a2, b2;
  {
    auto service = CepService::Create(options).value();
    ASSERT_TRUE(service->Register(spec("a", &a1)).ok());
    ASSERT_TRUE(service->Register(spec("b", &b1)).ok());
    ASSERT_TRUE(service
                    ->AttachSource(
                        std::make_unique<EventStreamSource>(&workload.delta))
                    .ok());
    ASSERT_TRUE(service->PumpAttachedSources(50).ok());
    ASSERT_TRUE(service->CheckpointTo(dir).ok());
  }
  auto service = CepService::Create(options).value();
  ASSERT_TRUE(service->Register(spec("a", &a2)).ok());
  ASSERT_TRUE(service->Register(spec("b", &b2).WithSeed(99)).ok());
  ASSERT_TRUE(service
                  ->AttachSource(
                      std::make_unique<EventStreamSource>(&workload.delta))
                  .ok());
  auto report = service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("cannot rebuild"),
            std::string::npos)
      << report.status().message();
}

TEST_F(ServiceCheckpointTest, VersionTwoPayloadIsDataLoss) {
  // A well-formed checkpoint in the version-2 layout, whose query
  // sections named no sharing group: restore must refuse it by version
  // instead of misreading every section after the first.
  DeltaWorkload workload = MakeDeltaWorkload(5);
  const std::string dir = FreshDir("v2");
  EngineStateWriter outer;
  SnapshotWriter& p = outer.payload();
  p.U32(2);  // payload version
  p.U64(2);  // queries ever registered
  p.U8(0);   // single-threaded host
  p.U8(1);   // attached-source state follows
  p.U64(0);  // next merge serial
  PartitionSequencer().SaveTo(&p);
  p.U8(1);  // an (empty) retraction ledger
  RetractionLedger().SaveTo(&p);
  p.U64(1);  // one attached source: positional, offset 0, not exhausted
  p.U8(1);
  p.U64(0);
  p.U8(0);
  p.U64(2);  // two query sections, version-2 shape: no group id
  for (uint64_t id = 0; id < 2; ++id) {
    p.U64(id);
    p.Str(id == 0 ? "keyed" : "unkeyed");
    p.U8(id == 0 ? 1 : 0);  // keyed
    p.U8(1);                // active
    p.U8(0);                // not sharded
    outer.WriteCounters(EngineCounters{});
    if (id == 0) {
      p.U64(0);  // no partition engines yet
    } else {
      p.U8(0);  // no live engine
    }
  }
  {
    CheckpointStore store(dir);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.WriteCheckpoint(outer.Finish()).ok());
  }
  Session s = MakeSession(workload, 1);
  auto report = s.service->RestoreFrom(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(report.status().message().find("version 2"), std::string::npos)
      << report.status().message();
}

}  // namespace
}  // namespace cepjoin
