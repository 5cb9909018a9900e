#ifndef CEPJOIN_PARALLEL_WORKER_H_
#define CEPJOIN_PARALLEL_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adaptive/partition_planner.h"
#include "common/status.h"
#include "obs/pipeline_metrics.h"
#include "parallel/bounded_queue.h"
#include "parallel/concurrent_sink.h"
#include "parallel/event_batch.h"
#include "parallel/query_set.h"
#include "parallel/shard_checkpoint.h"

namespace cepjoin {

/// One shard's execution thread. Hosts, for every registered query
/// group, the engines of every partition hashed to this shard; consumes
/// event batches from its queue in FIFO order (preserving global arrival
/// order within each partition), and emits matches to its private
/// ShardSink tagged with (group, generation, partition) — no shared
/// mutable state with other workers.
///
/// Multi-query: each batch carries the query-set snapshot that was
/// active when it was routed. A run of events costs ONE queue pop and
/// ONE partition-run segmentation regardless of how many queries are
/// registered — the per-query cost is just the engine feed, paid once
/// per group however many registrations share it. On an epoch change the
/// worker finishes the engines of groups that left the set (flushing
/// their trailing-negation matches), and for every member that left a
/// group still running it clones the group's engines through the
/// snapshot codec and finishes the clones into that member alone — so a
/// deregistered query sees exactly the events routed before its
/// deregistration, shared or not.
///
/// Plans come from each group's shared, immutable PartitionPlanner, so a
/// partition gets the same plan here as it would in the single-threaded
/// PartitionedRuntime.
///
/// Thread-safety: the ONLY synchronized state a worker touches is its
/// BoundedQueue (whose lock protocol carries thread-safety annotations;
/// see parallel/bounded_queue.h) and the striped-atomic metric
/// instruments. Everything else — the group states, the engines, the
/// ShardSink — is confined to the worker thread between Start() and
/// Join(); CountersOf()/NumPartitionsOf()/PlanFor() are caller-thread
/// reads made safe by the Join() happens-before edge, hence "valid only
/// after Join()".
class ShardWorker {
 public:
  /// `metrics` (owned by the runtime, may be null) carries this shard's
  /// pipeline instruments: per-shard event/batch counters and the queue
  /// depth gauge, updated once per popped batch.
  ShardWorker(BoundedQueue<EventBatch>* queue,
              ConcurrentMatchSink::ShardSink* sink,
              const ShardMetrics* metrics = nullptr);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Launches the worker thread. The thread runs until the queue is
  /// closed and drained, then finishes every remaining engine.
  void Start();

  /// Waits for the worker thread to exit. The queue must have been
  /// closed first, or Join() blocks forever. Idempotent.
  void Join();

  /// Aggregated counters across one registration's partition engines on
  /// this shard (disjoint sub-streams: totals sum) — its group's, or its
  /// finished clones' if it left a group that kept running. Zero
  /// counters if this worker never saw events for the query. Valid only
  /// after Join().
  EngineCounters CountersOf(uint64_t query) const;

  /// Partitions this worker instantiated engines for, for one
  /// registration. Valid after Join().
  size_t NumPartitionsOf(uint64_t query) const;

  /// The plan serving `partition` under one registration, or nullptr if
  /// this worker never saw that combination. Valid only after Join().
  const EnginePlan* PlanFor(uint64_t query, uint32_t partition) const;

  /// Checkpoint capture: serializes every live (unfinished) engine on
  /// this shard into `partitions` (ascending group id, then ascending
  /// partition; tagged with the group id) and the buffered sink entries
  /// into `sink_entries`. MUST
  /// run on the worker thread — the runtime delivers it via a control
  /// batch (EventBatch::control), which also guarantees every earlier
  /// batch has been fully evaluated.
  Status CaptureState(std::vector<PartitionSnapshot>* partitions,
                      std::string* sink_entries);

  /// Checkpoint restore into a freshly started worker: adopts `snapshot`
  /// as the active query set, rebuilds an engine for each of this
  /// shard's `partitions` entries (tagged with a group id of `snapshot`)
  /// and loads its state, then loads from
  /// every capture-time `sink_blobs` entry the buffered matches whose
  /// partition `shard_of` maps to `shard`, remapping their query ids
  /// through `query_remap` (capture-time runtime id -> this runtime's
  /// id). Same control-batch delivery contract as CaptureState.
  Status RestoreState(std::shared_ptr<const QuerySetSnapshot> snapshot,
                      const std::vector<const PartitionSnapshot*>& partitions,
                      const std::vector<const std::string*>& sink_blobs,
                      const std::unordered_map<uint64_t, uint64_t>& query_remap,
                      size_t shard,
                      const std::function<size_t(uint32_t)>& shard_of);

 private:
  /// Engine counter values already folded into registry counters: the
  /// registry counters are shared across partitions and shards, so each
  /// engine contributes growth deltas, synced per run and at finish.
  struct Watermarks {
    uint64_t kernel_lanes = 0;
    uint64_t kernel_blocks = 0;
    uint64_t retractions = 0;
  };
  struct PartitionState {
    EnginePlan plan;
    std::unique_ptr<Engine> engine;
    /// Exact cep_query_memory_bytes{query, partition} gauge of the
    /// group's lowest active member (a shared engine is counted once),
    /// refreshed from the engine's counters after every run this
    /// partition evaluates and zeroed when the engine is released. Null
    /// when metrics are off. The handle is cached here, keyed by its
    /// owner's bundle, so the hot loop never touches the registry mutex.
    Gauge* memory = nullptr;
    const QueryMetrics* memory_owner = nullptr;
    /// This engine's kernel/retraction counters already folded into the
    /// members' registry totals (SyncMembersDelta).
    Watermarks reported;
  };
  struct GroupState {
    const PartitionPlanner* planner = nullptr;
    std::unordered_map<uint32_t, PartitionState> partitions;
    bool finished = false;
    EngineCounters counters;  // aggregated when the group finishes
  };
  /// A registration that left a group other members keep running: the
  /// plans and finished-clone counters it would have had alone.
  struct DepartedMember {
    std::unordered_map<uint32_t, EnginePlan> plans;
    EngineCounters counters;
  };

  void Run();
  /// Finishes the groups and detaches the members absent from `next`,
  /// then makes `next` the active set.
  void AdoptSnapshot(std::shared_ptr<const QuerySetSnapshot> next);
  GroupState& GroupStateFor(const ShardQuery& group);
  PartitionState& StateFor(GroupState& group, uint32_t partition);
  /// Points the partition's memory gauge at the group's current lowest
  /// member (moving a shared engine's bytes there when that changes).
  static void RefreshMemoryGauge(const ShardQuery& group, uint32_t partition,
                                 PartitionState& state);
  /// Folds one partition engine's kernel/retraction counter growth into
  /// every member's registry counters.
  static void SyncMembersDelta(const ShardMember* members, size_t n,
                               const EngineCounters& counters,
                               Watermarks* reported);
  /// Finishes one group's engines in ascending partition order into its
  /// members (the members of `group` as last active), aggregates its
  /// counters, and releases the engines.
  void FinishGroup(const ShardQuery& group, GroupState& state);
  /// A member leaves a group that keeps running: clones each partition
  /// engine via SaveState/LoadState and finishes the clone into the
  /// member alone, in ascending partition order.
  void DetachMember(const ShardMember& member, GroupState& state);
  /// Sorted partition ids of a group.
  static std::vector<uint32_t> SortedPartitions(const GroupState& state);

  BoundedQueue<EventBatch>* queue_;
  ConcurrentMatchSink::ShardSink* sink_;
  const ShardMetrics* metrics_;
  std::unordered_map<uint64_t, GroupState> groups_;  // by group id
  /// Group of every registration this worker has seen in a snapshot.
  std::unordered_map<uint64_t, uint64_t> group_of_;
  std::unordered_map<uint64_t, DepartedMember> departed_;
  std::shared_ptr<const QuerySetSnapshot> active_;
  std::thread thread_;
  bool joined_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_WORKER_H_
