// Unit tests of the benchmark's own helpers. Plain executable (no test
// framework dependency): prints each failed expectation and exits 1.
//
//   cmake --build <build-dir> --target cepbench_util_test
//   <build-dir>/cepbench_util_test

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "bench_util.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using cepbench::Clock;

void TestPercentile() {
  EXPECT(cepbench::Percentile({}, 0.5) == 0.0);
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  EXPECT(cepbench::Percentile(values, 0.5) == 50.0);
  EXPECT(cepbench::Percentile(values, 0.99) == 99.0);
  EXPECT(cepbench::Percentile(values, 1.0) == 100.0);
  EXPECT(cepbench::Percentile(values, 0.0) == 1.0);
  EXPECT(cepbench::Median({3.0, 1.0, 2.0}) == 2.0);

  cepbench::Distribution d = cepbench::Summarize(values);
  EXPECT(d.count == 100);
  EXPECT(d.p50 == 50.0 && d.p99 == 99.0);
  // 100 samples leave one above the p99: too few to support it.
  EXPECT(!d.p99_supported);
  EXPECT(cepbench::PercentileSupported(1000, 0.99));
  EXPECT(!cepbench::PercentileSupported(999, 0.99));
  EXPECT(cepbench::PercentileSupported(20, 0.5));
}

void TestBestOfRounds() {
  // Round 1 stalled in chunk 0, round 2 in chunk 2: the best round is
  // 1 + 2 + 3 although no single round took 6.
  std::vector<std::vector<double>> rounds = {{5.0, 2.0, 3.0},
                                             {1.0, 2.5, 9.0},
                                             {1.5, 2.0, 3.5}};
  EXPECT(cepbench::BestSumOfChunks(rounds) == 6.0);
  EXPECT((cepbench::ElementwiseMin(rounds) ==
          std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT(cepbench::BestSumOfChunks({}) == 0.0);
  EXPECT(cepbench::BestSumOfChunks({{1.0, 2.0}, {1.0}}) == 0.0);
  EXPECT(cepbench::ElementwiseMin({{1.0}, {}}).empty());
}

cepjoin::EventPtr MakeEvent(cepjoin::EventSerial serial) {
  auto e = std::make_shared<cepjoin::Event>();
  e->serial = serial;
  return e;
}

cepjoin::Match MakeMatch(std::vector<std::vector<cepjoin::EventSerial>> slots,
                         int8_t polarity = 1) {
  cepjoin::Match m;
  for (const auto& slot : slots) {
    std::vector<cepjoin::EventPtr> events;
    for (cepjoin::EventSerial s : slot) events.push_back(MakeEvent(s));
    m.slots.push_back(events);
  }
  m.polarity = polarity;
  return m;
}

void TestDigest() {
  std::vector<cepjoin::Match> matches = {
      MakeMatch({{1}, {2}, {3}}), MakeMatch({{1}, {4}, {3}}),
      MakeMatch({{5}, {6, 7}, {8}}), MakeMatch({{9}, {10}, {11}})};
  cepbench::Digest forward;
  for (const auto& m : matches) forward.Add(m);

  // Any order gives the same digest.
  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(matches.begin(), matches.end(), rng);
    cepbench::Digest shuffled;
    for (const auto& m : matches) shuffled.Add(m);
    EXPECT(shuffled == forward);
  }
  // Kleene slot order inside a slot does not matter.
  cepbench::Digest a;
  a.Add(MakeMatch({{5}, {6, 7}, {8}}));
  cepbench::Digest b;
  b.Add(MakeMatch({{5}, {7, 6}, {8}}));
  EXPECT(a == b);
  // The same serials in another slot are another match.
  cepbench::Digest c;
  c.Add(MakeMatch({{2}, {1}, {3}}));
  cepbench::Digest d;
  d.Add(MakeMatch({{1}, {2}, {3}}));
  EXPECT(c != d);

  // A revocation cancels its match wherever it lands in the stream.
  cepbench::Digest with_revocation;
  with_revocation.Add(MakeMatch({{12}, {13}, {14}}));
  for (const auto& m : matches) with_revocation.Add(m);
  with_revocation.Add(MakeMatch({{12}, {13}, {14}}, -1));
  EXPECT(with_revocation == forward);
  EXPECT(with_revocation.net == 4);

  // Digests of disjoint parts add up to the whole.
  cepbench::Digest head;
  cepbench::Digest tail;
  for (size_t i = 0; i < matches.size(); ++i) {
    (i < 2 ? head : tail).Add(matches[i]);
  }
  EXPECT(head.Plus(tail) == forward);
}

cepbench::Span MakeSpan(uint32_t id, uint32_t parent, int64_t start,
                        int64_t end, bool summed = false) {
  cepbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.summed = summed;
  return s;
}

void TestSelfTime() {
  // root [0,100] with children [10,30], [20,50] (overlapping) and [60,70],
  // plus a summed child of 5 ns; the grandchild [12,18] belongs to
  // span 2 only.
  std::vector<cepbench::Span> spans = {
      MakeSpan(1, 0, 0, 100),      MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),      MakeSpan(4, 1, 60, 70),
      MakeSpan(5, 1, 0, 5, true),  MakeSpan(6, 2, 12, 18),
      MakeSpan(7, 0, 200, 210),    MakeSpan(8, 7, 205, 230)};
  std::vector<int64_t> self = cepbench::SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10 - 5);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 5);
  // A child running past its parent covers only the overlap.
  EXPECT(self[6] == 5);

  cepbench::Tracer tracer(true);
  tracer.set_run(3);
  {
    cepbench::ScopedSpan outer(&tracer, "outer");
    tracer.AddSummed("per_event", 40);
    tracer.AddSummed("per_event", 60);
    cepbench::ScopedSpan inner(&tracer, "inner");
  }
  const auto& recorded = tracer.spans();
  EXPECT(recorded.size() == 3);
  EXPECT(recorded[0].name == "outer" && recorded[0].run == 3);
  EXPECT(recorded[1].parent == recorded[0].id);
  EXPECT(recorded[2].summed && recorded[2].calls == 2 &&
         recorded[2].duration_ns() == 100 &&
         recorded[2].parent == recorded[0].id);

  cepbench::Tracer off(false);
  {
    cepbench::ScopedSpan span(&off, "ignored");
    off.AddSummed("ignored", 1);
  }
  EXPECT(off.spans().empty());
}

void TestOpenLoop() {
  cepbench::OpenLoopSchedule schedule(1000.0, 10);  // one event per ms
  const Clock::time_point t0 = Clock::now();
  schedule.Start(t0);
  using std::chrono::microseconds;
  EXPECT(schedule.DueCount(t0 - microseconds(1)) == 0);
  EXPECT(schedule.DueCount(t0) == 1);
  EXPECT(schedule.DueCount(t0 + microseconds(999)) == 1);
  EXPECT(schedule.DueCount(t0 + microseconds(1001)) == 2);
  EXPECT(schedule.DueCount(t0 + microseconds(1000000)) == 10);
  // Event 3 is due at 3 ms: handled at 5 ms it is 2 ms late, handled at
  // 2.5 ms it is early.
  EXPECT(std::fabs(schedule.LatenessSeconds(3, t0 + microseconds(5000)) -
                   0.002) < 1e-9);
  EXPECT(schedule.LatenessSeconds(3, t0 + microseconds(2500)) < 0.0);
  // A stall delays every later event by the stall, not just one.
  const Clock::time_point after_stall = t0 + microseconds(9000);
  EXPECT(schedule.LatenessSeconds(4, after_stall) >
         schedule.LatenessSeconds(8, after_stall));
}

}  // namespace

int main() {
  TestPercentile();
  TestBestOfRounds();
  TestDigest();
  TestSelfTime();
  TestOpenLoop();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_util_test: all passed\n");
  return 0;
}
