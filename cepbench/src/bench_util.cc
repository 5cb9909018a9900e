#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace cepbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

bool PercentileSupported(size_t count, double q, size_t min_beyond) {
  return static_cast<double>(count) * (1.0 - q) + 1e-9 >=
         static_cast<double>(min_beyond);
}

Distribution Summarize(const std::vector<double>& values) {
  Distribution d;
  d.p50 = Percentile(values, 0.5);
  d.p99 = Percentile(values, 0.99);
  d.count = values.size();
  d.p99_supported = PercentileSupported(values.size(), 0.99);
  return d;
}

std::vector<double> ElementwiseMin(
    const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) return {};
  std::vector<double> best = rounds[0];
  for (const std::vector<double>& round : rounds) {
    if (round.size() != best.size()) return {};
    for (size_t i = 0; i < round.size(); ++i) {
      best[i] = std::min(best[i], round[i]);
    }
  }
  return best;
}

double BestSumOfChunks(const std::vector<std::vector<double>>& rounds) {
  double total = 0.0;
  for (double chunk : ElementwiseMin(rounds)) total += chunk;
  return total;
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t MatchHash(const cepjoin::Match& match) {
  uint64_t h = Mix(match.slots.size());
  std::vector<cepjoin::EventSerial> serials;
  for (size_t p = 0; p < match.slots.size(); ++p) {
    h = Mix(h ^ (static_cast<uint64_t>(p) + 1) * 0x100000001b3ull);
    serials.clear();
    for (const cepjoin::EventPtr& e : match.slots[p]) {
      serials.push_back(e->serial);
    }
    std::sort(serials.begin(), serials.end());
    for (cepjoin::EventSerial s : serials) h = Mix(h ^ s);
    h = Mix(h ^ 0xffull);
  }
  return h;
}

void Digest::Add(const cepjoin::Match& match) {
  const uint64_t h = MatchHash(match);
  if (match.IsRevocation()) {
    sum -= h;
    --net;
  } else {
    sum += h;
    ++net;
  }
}

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx/%lld",
                static_cast<unsigned long long>(sum),
                static_cast<long long>(net));
  return buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.run = run_;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (!enabled_) return;
  CEPJOIN_CHECK(!open_.empty() && open_.back() == id)
      << "spans must end innermost first";
  open_.pop_back();
  const int64_t end = NowNs();
  spans_[id - 1].end_ns = end;
  const int64_t start = spans_[id - 1].start_ns;
  const uint32_t run = spans_[id - 1].run;
  for (size_t i = 0; i < pending_.size();) {
    if (pending_[i].parent != id) {
      ++i;
      continue;
    }
    Span summed;
    summed.id = static_cast<uint32_t>(spans_.size() + 1);
    summed.parent = id;
    summed.run = run;
    summed.name = pending_[i].name;
    summed.start_ns = start;
    summed.end_ns = start + pending_[i].ns;
    summed.calls = pending_[i].calls;
    summed.summed = true;
    spans_.push_back(std::move(summed));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Tracer::AddSummed(const char* name, int64_t ns) {
  if (!enabled_ || open_.empty()) return;
  const uint32_t parent = open_.back();
  for (Pending& p : pending_) {
    if (p.parent == parent && std::strcmp(p.name, name) == 0) {
      p.ns += ns;
      ++p.calls;
      return;
    }
  }
  pending_.push_back({parent, name, ns, 1});
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    CEPJOIN_CHECK_LE(spans[i].parent, spans.size());
    children[spans[i].parent - 1].push_back(i);
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int64_t covered = 0;
    intervals.clear();
    for (size_t c : children[i]) {
      const Span& child = spans[c];
      if (child.summed) {
        covered += child.duration_ns();
        continue;
      }
      int64_t lo = std::max(child.start_ns, s.start_ns);
      int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, s.duration_ns() - covered);
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"run\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, "
                 "\"calls\": %llu, \"summed\": %s}\n",
                 s.id, s.parent, s.run, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 static_cast<unsigned long long>(s.calls),
                 s.summed ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

size_t OpenLoopSchedule::DueCount(Clock::time_point now) const {
  if (now < start_) return 0;
  const double elapsed = SecondsBetween(start_, now);
  const double due = std::floor(elapsed * rate_) + 1.0;
  if (due >= static_cast<double>(total_)) return total_;
  return static_cast<size_t>(due);
}

Clock::time_point OpenLoopSchedule::DueTime(size_t index) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(index) / rate_));
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace cepbench
