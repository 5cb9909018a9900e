#ifndef CEPJOIN_ADAPTIVE_PARTITIONED_RUNTIME_H_
#define CEPJOIN_ADAPTIVE_PARTITIONED_RUNTIME_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adaptive/partition_planner.h"
#include "common/status.h"
#include "engine/engine_factory.h"
#include "event/stream.h"
#include "runtime/match.h"
#include "stats/collector.h"

namespace cepjoin {

/// Per-partition evaluation plans — the future-work direction Sec. 6.2
/// sketches for partition contiguity: "unless the value distribution
/// across the partitions remains unchanged ... the evaluation plan is to
/// be generated on a per-partition basis".
///
/// The runtime assumes matches are partition-local (keyed streams: one
/// vehicle, one ticker symbol group, ...). It splits the statistics
/// stream by partition, runs the plan generator once per partition, and
/// routes live events to the partition's own engine. Partitions whose
/// statistics differ get different plans; the match set equals running
/// the pattern on every partition's sub-stream independently.
///
/// Planning is delegated to PartitionPlanner, which ShardedRuntime
/// (src/parallel/) shares, so the sharded execution produces the same
/// plans and the same match set as this single-threaded runtime.
class PartitionedRuntime {
 public:
  /// `history` supplies per-partition statistics (the preprocessing
  /// pass); partitions absent from the history fall back to global
  /// statistics. `batch_size` caps the per-partition runs OnBatch hands
  /// to an engine (bounding the batch-granularity latency anchor); must
  /// be >= 1.
  PartitionedRuntime(const SimplePattern& pattern, const EventStream& history,
                     size_t num_types, const std::string& algorithm,
                     MatchSink* sink, uint64_t seed = 7,
                     double latency_alpha = 0.0, size_t batch_size = 256);

  void OnEvent(const EventPtr& e);
  /// Batched ingestion: segments the run by partition and feeds each
  /// partition engine through Engine::OnBatch. Matches and counters are
  /// identical to per-event feeding.
  void OnBatch(const EventPtr* events, size_t n);
  void ProcessStream(const EventStream& stream);
  /// Flushes trailing matches (ascending partition order) and releases
  /// the partition engines — their buffered windows are freed, matching
  /// the sharded workers' drain. Counters are snapshotted first; plans
  /// and the partition set keep serving the introspection accessors.
  /// No ingestion is accepted afterwards.
  void Finish();

  /// Number of distinct partitions seen (== engines created).
  size_t num_partitions() const { return engines_.size(); }
  /// The distinct partitions seen, ascending.
  std::vector<uint32_t> Partitions() const;
  /// The plan serving one partition; aborts if the partition is unknown.
  const EnginePlan& PlanFor(uint32_t partition) const;
  /// The plan serving one partition, or nullptr if the partition is
  /// unknown (the non-aborting lookup the service API uses).
  const EnginePlan* FindPlan(uint32_t partition) const;
  /// Aggregated counters across partition engines (disjoint sub-streams:
  /// all totals, including events_processed, sum). After Finish() this
  /// serves the final snapshot taken before the engines were released.
  EngineCounters TotalCounters() const;

  /// Checkpoint capture: serializes every live partition engine
  /// (ascending partition order) as (partition, EngineStateWriter blob)
  /// pairs. FailedPrecondition after Finish() — released engines have no
  /// state left to save.
  Status SaveStateTo(
      std::vector<std::pair<uint32_t, std::string>>* out) const;

  /// Checkpoint restore: builds the engine for `partition` (same shared
  /// planner as capture, so same plan) and loads `blob` into it. Call on
  /// a freshly constructed runtime, once per saved partition.
  Status LoadPartitionState(uint32_t partition, const std::string& blob);

  /// A copy of this runtime whose partition engines hold exactly the
  /// current engines' state (SaveState -> LoadState through the snapshot
  /// codec) and emit to `sink`: finishing the copy flushes what this
  /// runtime would flush if it finished now, while this runtime keeps
  /// running. How a member leaves a shared query group. FailedPrecondition
  /// after Finish().
  StatusOr<std::unique_ptr<PartitionedRuntime>> CloneInto(
      MatchSink* sink) const;

  /// Visits every live partition engine as fn(partition, engine). The
  /// observability layer uses this to read exact per-partition memory
  /// footprints (Engine::counters().CurrentBytes()) at snapshot time.
  template <typename Fn>
  void ForEachPartition(Fn&& fn) const {
    for (const auto& [partition, state] : engines_) {
      if (state.engine != nullptr) fn(partition, *state.engine);
    }
  }

 private:
  struct PartitionState {
    EnginePlan plan;
    std::unique_ptr<Engine> engine;
  };

  PartitionedRuntime(PartitionPlanner planner, MatchSink* sink,
                     size_t batch_size);
  PartitionState& StateFor(uint32_t partition);

  PartitionPlanner planner_;
  MatchSink* sink_;
  size_t batch_size_;
  std::unordered_map<uint32_t, PartitionState> engines_;
  /// Counters snapshot taken at Finish(), when the engines are released.
  EngineCounters final_counters_;
  bool finished_ = false;
};

}  // namespace cepjoin

#endif  // CEPJOIN_ADAPTIVE_PARTITIONED_RUNTIME_H_
