#ifndef CEPJOIN_PARALLEL_CONCURRENT_SINK_H_
#define CEPJOIN_PARALLEL_CONCURRENT_SINK_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "parallel/query_set.h"
#include "runtime/match.h"

namespace cepjoin {

class EngineStateReader;
class EngineStateWriter;

/// Collects matches from concurrently running shard workers and replays
/// them into downstream (single-threaded) MatchSinks in a canonical,
/// thread-count-independent order.
///
/// Design: one ShardSink per worker, each appending to its own buffer —
/// no locking, no false sharing on the hot path. Determinism comes from
/// the drain, which stable-sorts all buffered matches by
/// (emit_serial, partition):
///
///  - matches emitted while processing event s carry emit_serial == s,
///    and s belongs to exactly one partition, so OnEvent-time matches
///    are totally ordered by emit_serial alone — the same order the
///    single-threaded PartitionedRuntime emits them in;
///  - Finish-time matches of different partitions can share an
///    emit_serial, so the partition id breaks the tie;
///  - matches of one (query, partition) are recorded by one worker in
///    that partition's deterministic engine order — and with multiple
///    queries, in snapshot (registration) order within a run — which
///    the stable sort preserves.
///
/// The result: the drain forwards the same per-query match sequence
/// whether the stream ran on 1 worker or 16.
///
/// Thread-safety: by confinement, not locking — there is deliberately no
/// mutex here (the no-raw-mutex rule of tools/cep_lint.py holds the
/// line). Each ShardSink is owned by exactly one worker thread for the
/// workers' lifetime; total_matches()/DrainTo()/DrainPerQuery() read all
/// buffers and are only legal after the workers have been JOINED — the
/// join is the happens-before edge that publishes the buffers to the
/// draining thread. Calling them while workers run is a data race (the
/// full-suite TSan CI job would flag it).
class ConcurrentMatchSink {
 public:
  /// Generation tag of an entry that belongs to one registration alone
  /// (the Finish-time matches of a member leaving a group that keeps
  /// running); its query field is then that member's id.
  static constexpr uint32_t kSoloGeneration = UINT32_MAX;

  /// Per-worker MatchSink facade. The owning worker must call
  /// set_current() / set_current_solo() (or set_current_partition() in
  /// single-query use) before feeding its engines, so recorded matches
  /// carry the partition tie-breaker and their recipients' tag.
  class ShardSink : public MatchSink {
   public:
    void OnMatch(const Match& match) override;
    void set_current_partition(uint32_t partition) {
      current_partition_ = partition;
    }
    /// Matches recorded from now on belong to every member of `group`
    /// (stored once, tagged with the group id and generation) and are
    /// recorded into every member's metrics bundle. `group` must stay
    /// alive while it is current (the worker's active snapshot owns it).
    void set_current(const ShardQuery& group, uint32_t partition) {
      current_query_ = group.id;
      current_generation_ = group.generation;
      current_partition_ = partition;
      members_ = group.members.data();
      num_members_ = group.members.size();
    }
    /// Matches recorded from now on belong to `member` alone.
    void set_current_solo(const ShardMember& member, uint32_t partition) {
      current_query_ = member.id;
      current_generation_ = kSoloGeneration;
      current_partition_ = partition;
      members_ = &member;
      num_members_ = 1;
    }
    /// Latency anchor of the batch being evaluated (its router-entry
    /// time); matches recorded while it is set feed the owning query's
    /// ingest-to-match histogram. A zero (epoch) time point — the
    /// default, and what workers set before Finish-time flushes — skips
    /// that histogram: end-of-stream matches have no ingest anchor.
    void set_batch_ingest_time(std::chrono::steady_clock::time_point t) {
      batch_ingested_at_ = t;
    }

    bool empty() const { return entries_.empty(); }

    /// Checkpoint support: serializes the buffered entries (matches
    /// tagged with runtime query id, generation and partition) into `w`.
    /// Runs on the owning worker thread via a control batch.
    void SaveEntries(EngineStateWriter* w) const;

    /// Restore counterpart: decodes a SaveEntries blob, keeps only the
    /// entries whose partition `shard_of` maps to `shard`, and remaps
    /// capture-time runtime query ids through `query_remap`. Every
    /// capture-time shard blob is offered to every restore-time shard;
    /// the filter re-partitions the union under the new shard map, and
    /// the canonical (emit_serial, partition) drain order erases any
    /// difference in which buffer an entry landed in.
    Status LoadEntries(EngineStateReader* r, size_t shard,
                       const std::function<size_t(uint32_t)>& shard_of,
                       const std::unordered_map<uint64_t, uint64_t>&
                           query_remap);

   private:
    friend class ConcurrentMatchSink;
    struct Entry {
      Match match;
      uint64_t query = 0;
      uint32_t partition = 0;
      uint32_t generation = 0;
    };
    std::vector<Entry> entries_;
    uint64_t current_query_ = 0;
    uint32_t current_partition_ = 0;
    uint32_t current_generation_ = 0;
    const ShardMember* members_ = nullptr;
    size_t num_members_ = 0;
    std::chrono::steady_clock::time_point batch_ingested_at_{};
  };

  explicit ConcurrentMatchSink(size_t num_shards);

  ShardSink* shard(size_t i) { return shards_[i].get(); }
  size_t num_shards() const { return shards_.size(); }

  /// Total matches buffered across all shards. Only meaningful once the
  /// workers have stopped.
  size_t total_matches() const;

  /// Replays every buffered match into `out` in canonical order (see
  /// class comment), ignoring query tags, and clears the buffers. Must
  /// only be called after all workers have been joined.
  void DrainTo(MatchSink* out);

  /// The recipients of one buffered entry, by its (query, generation)
  /// tag: the sinks of the group's members that were active at that
  /// generation, in registration order, or the one member of a
  /// kSoloGeneration entry.
  using RecipientsFn = std::function<const std::vector<MatchSink*>&(
      uint64_t query, uint32_t generation)>;

  /// Multi-query drain: replays every buffered match in canonical order,
  /// handing each to every sink `recipients_for` names for its tag — so
  /// each registration receives exactly the subsequence a single-query
  /// run would have produced, while a group's match is buffered once.
  /// Clears the buffers; must only be called after all workers have
  /// been joined.
  void DrainPerQuery(const RecipientsFn& recipients_for);

 private:
  std::vector<ShardSink::Entry> SortedEntries();

  std::vector<std::unique_ptr<ShardSink>> shards_;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_CONCURRENT_SINK_H_
