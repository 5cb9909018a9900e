#ifndef CEPBENCH_BENCH_UTIL_H_
#define CEPBENCH_BENCH_UTIL_H_

// Helpers of the CepService benchmark that carry no workload knowledge:
// percentiles with their sample count, the order-independent match
// digest, the in-memory span tracer and its self-time computation, and
// the open-loop schedule. Each is unit-tested in
// tests/bench_util_test.cc.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/match.h"

namespace cepbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

// ---- percentiles ------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// A timing distribution as the benchmark reports it: the median, the
/// 99th percentile, and the sample count behind both.
struct Distribution {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t count = 0;
  /// True when at least ten samples lie beyond the p99 rank, the
  /// smallest sample for which a p99 is more than its top few values.
  bool p99_supported = false;
};
Distribution Summarize(const std::vector<double>& values);

/// True when `count` samples leave at least `min_beyond` of them above
/// quantile q.
bool PercentileSupported(size_t count, double q, size_t min_beyond = 10);

// ---- best-of-rounds estimators ------------------------------------------
//
// A run repeats identical rounds (same inputs, same deterministic work).
// Taking each part of a round at its fastest over the rounds removes
// interference from outside the process (descheduled or slowed vCPUs),
// which stalls some rounds at some points but not all rounds at the
// same point.

/// Sum over chunk positions of the chunk's lowest time over the rounds
/// (rounds[r][i] = time of chunk i in round r). 0 when there are no
/// rounds or the rounds have different chunk counts.
double BestSumOfChunks(const std::vector<std::vector<double>>& rounds);

/// Element-wise minimum over the rounds; empty when there are no rounds
/// or their lengths differ.
std::vector<double> ElementwiseMin(
    const std::vector<std::vector<double>>& rounds);

// ---- match digest -----------------------------------------------------

/// 64-bit hash of a match's identity: the sorted event serials of each
/// slot, the same identity Match::Fingerprint() spells out as a string.
/// Polarity is excluded, so a revocation hashes like the match it
/// cancels.
uint64_t MatchHash(const cepjoin::Match& match);

/// Order-independent digest of a query's net output: the wrapping sum of
/// the hashes of its matches minus those of its revocations, plus the
/// net count. Two runs that emit the same net match multiset in any
/// order, with any interleaving of emit and revoke, agree.
struct Digest {
  uint64_t sum = 0;
  int64_t net = 0;

  void Add(const cepjoin::Match& match);
  /// Combines the digests of two disjoint parts of one output (the
  /// matches before a checkpoint cut and those replayed after it).
  Digest Plus(const Digest& other) const {
    return Digest{sum + other.sum, net + other.net};
  }
  bool operator==(const Digest& other) const {
    return sum == other.sum && net == other.net;
  }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  std::string ToString() const;
};

// ---- tracing ----------------------------------------------------------

/// One traced interval. Ids start at 1; parent 0 is the root. A
/// `summed` span aggregates many short calls (per-event Next, per-match
/// OnMatch) under one parent: its duration is their total time and
/// `calls` their number, and it is laid out from the parent's start.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t run = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 1;
  bool summed = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records spans in memory on one thread; written out once at exit.
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Spans begun from now on carry this run id.
  void set_run(uint32_t run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  uint32_t Begin(const std::string& name);
  void End(uint32_t id);
  /// Renames a span once its outcome is known (a checkpoint call that
  /// cut versus one that declined).
  void Rename(uint32_t id, const std::string& name) {
    if (enabled_ && id != 0) spans_[id - 1].name = name;
  }
  /// Adds `ns` of one call named `name` to the innermost open span's
  /// summed child of that name.
  void AddSummed(const char* name, int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans, one JSON object per line, with each span's self
  /// time. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Pending {
    uint32_t parent;
    const char* name;
    int64_t ns;
    uint64_t calls;
  };

  bool enabled_;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  std::vector<Pending> pending_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const std::string& name) {
    if (tracer_ != nullptr) tracer_->Rename(id_, name);
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Monotonic nanoseconds for span stamps.
int64_t NowNs();

/// Self time of every span (indexed like `spans`): its duration minus
/// the part of it that its children cover. Interval children count by
/// the union of their intervals clipped to the parent; summed children
/// count by their total time.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// ---- open loop --------------------------------------------------------

/// Fixed-rate arrival schedule: event i is due at start + i / rate,
/// whether or not the system kept up with the events before it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, size_t total)
      : rate_(rate_per_s), total_(total) {}

  void Start(Clock::time_point start) { start_ = start; }

  /// Number of events due at `now` (those with due time <= now).
  size_t DueCount(Clock::time_point now) const;
  Clock::time_point DueTime(size_t index) const;
  /// How late event `index` is when handled at `at`, in seconds
  /// (negative when early).
  double LatenessSeconds(size_t index, Clock::time_point at) const {
    return SecondsBetween(DueTime(index), at);
  }

 private:
  double rate_;
  size_t total_;
  Clock::time_point start_{};
};

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

}  // namespace cepbench

#endif  // CEPBENCH_BENCH_UTIL_H_
