#include "parallel/concurrent_sink.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "obs/pipeline_metrics.h"

namespace cepjoin {

void ConcurrentMatchSink::ShardSink::SaveEntries(EngineStateWriter* w) const {
  w->payload().U64(entries_.size());
  for (const Entry& entry : entries_) {
    w->WriteMatch(entry.match);
    w->payload().U64(entry.query);
    w->payload().U32(entry.partition);
    w->payload().U32(entry.generation);
  }
}

Status ConcurrentMatchSink::ShardSink::LoadEntries(
    EngineStateReader* r, size_t shard,
    const std::function<size_t(uint32_t)>& shard_of,
    const std::unordered_map<uint64_t, uint64_t>& query_remap) {
  SnapshotReader& p = r->payload();
  uint64_t n = p.U64();
  for (uint64_t i = 0; i < n && p.ok(); ++i) {
    Entry entry;
    entry.match = r->ReadMatch();
    entry.query = p.U64();
    entry.partition = p.U32();
    entry.generation = p.U32();
    if (!p.ok()) break;
    if (shard_of(entry.partition) != shard) continue;
    auto it = query_remap.find(entry.query);
    if (it == query_remap.end()) {
      return Status::FailedPrecondition(
          "buffered match references capture-time query id " +
          std::to_string(entry.query) +
          " with no restore-time counterpart");
    }
    entry.query = it->second;
    entries_.push_back(std::move(entry));
  }
  return r->status();
}

void ConcurrentMatchSink::ShardSink::OnMatch(const Match& match) {
  Entry entry;
  entry.match = match;
  entry.query = current_query_;
  entry.partition = current_partition_;
  entry.generation = current_generation_;
  entries_.push_back(std::move(entry));
  // Striped counters/histograms: every shard records through the same
  // per-query bundles without contention, and a snapshot merges the
  // per-thread cells — the sharded equivalent of merging per-shard
  // output profilers at drain time. A group's match counts for every
  // member, exactly as if each ran alone.
  for (size_t i = 0; i < num_members_; ++i) {
    RecordMatchMetrics(members_[i].metrics, match, batch_ingested_at_);
  }
}

ConcurrentMatchSink::ConcurrentMatchSink(size_t num_shards) {
  CEPJOIN_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ShardSink>());
  }
}

size_t ConcurrentMatchSink::total_matches() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->entries_.size();
  return total;
}

std::vector<ConcurrentMatchSink::ShardSink::Entry>
ConcurrentMatchSink::SortedEntries() {
  std::vector<ShardSink::Entry> all;
  all.reserve(total_matches());
  // Concatenate in shard order. Entries of one partition are contiguous
  // in relative order within exactly one shard's buffer (the router
  // pins a partition to one shard regardless of query), so the stable
  // sort below preserves each (query, partition)'s engine emission
  // order.
  for (auto& shard : shards_) {
    for (auto& entry : shard->entries_) all.push_back(std::move(entry));
    shard->entries_.clear();
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const ShardSink::Entry& a, const ShardSink::Entry& b) {
                     return std::make_tuple(a.match.emit_serial, a.partition) <
                            std::make_tuple(b.match.emit_serial, b.partition);
                   });
  return all;
}

void ConcurrentMatchSink::DrainTo(MatchSink* out) {
  CEPJOIN_CHECK(out != nullptr);
  for (auto& entry : SortedEntries()) out->OnMatch(entry.match);
}

void ConcurrentMatchSink::DrainPerQuery(const RecipientsFn& recipients_for) {
  for (auto& entry : SortedEntries()) {
    for (MatchSink* out : recipients_for(entry.query, entry.generation)) {
      out->OnMatch(entry.match);
    }
  }
}

}  // namespace cepjoin
