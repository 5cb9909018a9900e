#ifndef CEPJOIN_PARALLEL_QUERY_SET_H_
#define CEPJOIN_PARALLEL_QUERY_SET_H_

#include <cstdint>
#include <vector>

namespace cepjoin {

class PartitionPlanner;
class QueryMetrics;

/// One registration served by a query group: its runtime id plus its
/// shared per-query instrument bundle (obs/pipeline_metrics.h), owned by
/// the runtime or the service; null when metrics are off. All recording
/// through it is striped/atomic, so every worker can write through the
/// same bundle.
struct ShardMember {
  uint64_t id = 0;
  QueryMetrics* metrics = nullptr;
};

/// One query group as the shard workers see it: registrations with equal
/// share keys (same pattern, algorithm, seed, latency alpha) that joined
/// before any event was routed to the group are evaluated by ONE engine
/// per partition, whose matches belong to every member. A lone query is
/// a group of one. The planner is owned by the ShardedRuntime and
/// outlives every snapshot referencing it.
struct ShardQuery {
  /// Group id: the runtime id of the registration that formed the group.
  uint64_t id = 0;
  const PartitionPlanner* planner = nullptr;
  /// Members that have left the group so far. Buffered matches carry it,
  /// so the drain hands each match to exactly the members that were
  /// active when it was recorded.
  uint32_t generation = 0;
  /// Active members in registration order; never empty.
  std::vector<ShardMember> members;
};

/// An immutable snapshot of the active query groups, in registration
/// order. The router stamps the current snapshot onto every flushed
/// batch, so a worker knows *exactly* which queries each event run
/// belongs to: a query registered mid-stream sees precisely the events
/// routed after its snapshot was published, and a deregistered query's
/// engines are finished (or, for a member leaving a group that keeps
/// running, cloned and finished) the moment a worker pops the first
/// batch from a later epoch — FIFO queues make the cut deterministic at
/// any thread count.
///
/// Snapshots are never mutated after publication; workers compare
/// shared_ptr identity to detect epoch changes.
struct QuerySetSnapshot {
  uint64_t epoch = 0;
  std::vector<ShardQuery> queries;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_QUERY_SET_H_
