#include "parallel/worker.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "durable/snapshot_codec.h"
#include "event/partition_runs.h"

namespace cepjoin {

ShardWorker::ShardWorker(BoundedQueue<EventBatch>* queue,
                         ConcurrentMatchSink::ShardSink* sink,
                         const ShardMetrics* metrics)
    : queue_(queue), sink_(sink), metrics_(metrics) {
  CEPJOIN_CHECK(queue_ != nullptr);
  CEPJOIN_CHECK(sink_ != nullptr);
}

ShardWorker::~ShardWorker() {
  if (thread_.joinable()) thread_.join();
}

void ShardWorker::Start() {
  CEPJOIN_CHECK(!thread_.joinable()) << "worker already started";
  thread_ = std::thread([this] { Run(); });
}

void ShardWorker::Join() {
  if (joined_) return;
  CEPJOIN_CHECK(thread_.joinable()) << "worker never started";
  thread_.join();
  joined_ = true;
}

ShardWorker::GroupState& ShardWorker::GroupStateFor(const ShardQuery& group) {
  auto it = groups_.find(group.id);
  if (it != groups_.end()) return it->second;
  GroupState state;
  state.planner = group.planner;
  return groups_.emplace(group.id, std::move(state)).first->second;
}

ShardWorker::PartitionState& ShardWorker::StateFor(GroupState& group,
                                                   uint32_t partition) {
  auto it = group.partitions.find(partition);
  if (it != group.partitions.end()) return it->second;
  PartitionState state;
  state.plan = group.planner->PlanFor(partition);
  state.engine = group.planner->BuildEngineFor(state.plan, sink_);
  return group.partitions.emplace(partition, std::move(state)).first->second;
}

void ShardWorker::RefreshMemoryGauge(const ShardQuery& group,
                                     uint32_t partition,
                                     PartitionState& state) {
  QueryMetrics* owner = group.members.front().metrics;
  if (owner == nullptr) return;
  if (state.memory_owner != owner) {
    // Registry mutex, but only when a (group, partition) is first seen
    // or its lowest member leaves; the per-run update below goes
    // through the cached handle. The former owner's gauge reports the
    // engine as released from its point of view.
    if (state.memory != nullptr) state.memory->Set(0.0);
    state.memory = owner->MemoryGauge(partition);
    state.memory_owner = owner;
  }
  state.memory->Set(
      static_cast<double>(state.engine->counters().CurrentBytes()));
}

void ShardWorker::SyncMembersDelta(const ShardMember* members, size_t n,
                                   const EngineCounters& counters,
                                   Watermarks* reported) {
  auto sync = [&](Counter* QueryMetrics::*field, uint64_t current,
                  uint64_t* reported) {
    if (current <= *reported) return;
    const uint64_t delta = current - *reported;
    *reported = current;
    for (size_t i = 0; i < n; ++i) (members[i].metrics->*field)->Inc(delta);
  };
  sync(&QueryMetrics::instance_kernel_lanes, counters.instance_kernel_lanes,
       &reported->kernel_lanes);
  sync(&QueryMetrics::instance_kernel_blocks, counters.instance_kernel_blocks,
       &reported->kernel_blocks);
  sync(&QueryMetrics::retractions_total, counters.retractions_processed,
       &reported->retractions);
}

std::vector<uint32_t> ShardWorker::SortedPartitions(const GroupState& state) {
  std::vector<uint32_t> partitions;
  partitions.reserve(state.partitions.size());
  for (const auto& [partition, ps] : state.partitions) {
    partitions.push_back(partition);
  }
  std::sort(partitions.begin(), partitions.end());
  return partitions;
}

void ShardWorker::FinishGroup(const ShardQuery& group, GroupState& state) {
  if (state.finished) return;
  // Ascending partition order, so Finish-time matches of this group on
  // this shard are recorded deterministically.
  const std::vector<uint32_t> partitions = SortedPartitions(state);
  // Finish-time matches carry no ingest anchor (their "arrival" is the
  // end of stream, not a routed batch): clear the batch time so the
  // ingest-to-match histogram skips them while counts/detection still
  // record.
  sink_->set_batch_ingest_time({});
  for (uint32_t partition : partitions) {
    sink_->set_current(group, partition);
    state.partitions.at(partition).engine->Finish();
  }
  EngineCounters total;
  for (uint32_t partition : partitions) {
    total.MergeDisjoint(state.partitions.at(partition).engine->counters());
  }
  state.counters = total;
  state.finished = true;
  // Retired groups release their engines (and buffered windows) right
  // here on the worker thread; the plans stay for PlanFor(). The memory
  // gauges report the release: this (query, partition) is genuinely
  // back to zero resident bytes.
  const bool metrics = group.members.front().metrics != nullptr;
  for (uint32_t partition : partitions) {
    PartitionState& ps = state.partitions.at(partition);
    // Finish() itself never grows the kernel counters today, but the
    // final sync keeps the registry exact by construction either way.
    if (metrics) {
      SyncMembersDelta(group.members.data(), group.members.size(),
                       ps.engine->counters(), &ps.reported);
    }
    ps.engine.reset();
    if (ps.memory != nullptr) ps.memory->Set(0.0);
  }
}

void ShardWorker::DetachMember(const ShardMember& member,
                               GroupState& state) {
  DepartedMember& departed = departed_[member.id];
  const std::vector<uint32_t> partitions = SortedPartitions(state);
  sink_->set_batch_ingest_time({});
  for (uint32_t partition : partitions) {
    PartitionState& ps = state.partitions.at(partition);
    // The clone holds exactly the group engine's state at this cut, so
    // finishing it emits the matches a standalone engine of this member
    // would flush here, while the group's own engine keeps running.
    std::unique_ptr<Engine> clone =
        state.planner->BuildEngineFor(ps.plan, sink_);
    Status copied = CopyEngineState(*ps.engine, clone.get());
    CEPJOIN_CHECK(copied.ok()) << copied.ToString();
    sink_->set_current_solo(member, partition);
    clone->Finish();
    const EngineCounters& counters = clone->counters();
    departed.counters.MergeDisjoint(counters);
    departed.plans.emplace(partition, ps.plan);
    if (member.metrics != nullptr) {
      // Growth since the group's last sync belongs to this member alone;
      // the group's watermarks stay where its own engine is.
      Watermarks reported = ps.reported;
      SyncMembersDelta(&member, 1, counters, &reported);
    }
  }
}

void ShardWorker::AdoptSnapshot(std::shared_ptr<const QuerySetSnapshot> next) {
  if (active_ != nullptr) {
    // Ascending group id (snapshots list groups in registration order),
    // so Finish-time matches of this shard are recorded
    // deterministically.
    for (const ShardQuery& old : active_->queries) {
      auto it = groups_.find(old.id);
      if (it == groups_.end() || it->second.finished) continue;
      const ShardQuery* now = nullptr;
      for (const ShardQuery& q : next->queries) {
        if (q.id == old.id) {
          now = &q;
          break;
        }
      }
      if (now == nullptr) {
        FinishGroup(old, it->second);
        continue;
      }
      bool detached = false;
      for (const ShardMember& member : old.members) {
        bool stays = false;
        for (const ShardMember& m : now->members) stays |= m.id == member.id;
        if (stays) continue;
        DetachMember(member, it->second);
        detached = true;
      }
      if (!detached) continue;
      for (auto& [partition, ps] : it->second.partitions) {
        RefreshMemoryGauge(*now, partition, ps);
      }
    }
  }
  for (const ShardQuery& q : next->queries) {
    for (const ShardMember& m : q.members) group_of_[m.id] = q.id;
  }
  active_ = std::move(next);
}

void ShardWorker::Run() {
  EventBatch batch;
  while (queue_->Pop(batch)) {
    if (batch.queries != nullptr && batch.queries != active_) {
      AdoptSnapshot(std::move(batch.queries));
    }
    if (batch.control != nullptr) {
      // Checkpoint capture/restore runs here, on the worker thread, with
      // every earlier batch fully evaluated and the snapshot current at
      // the call adopted (FIFO queue order is the synchronization; the
      // caller blocks on a Notification inside the callback's closure).
      (*batch.control)(this);
      batch.control.reset();
      continue;
    }
    if (metrics_ != nullptr) {
      metrics_->events_total->Inc(batch.events.size());
      metrics_->batches_total->Inc();
      metrics_->queue_depth->Set(static_cast<double>(queue_->size()));
    }
    // Every match recorded while this batch evaluates is anchored to
    // the batch's router-entry time (zero when stamping is off).
    sink_->set_batch_ingest_time(batch.ingested_at);
    if (active_ != nullptr && !active_->queries.empty()) {
      // Segment the batch into maximal runs of one partition and hand
      // each run to every active group's engine over its batched path:
      // the queue pop, the segmentation, and the run bookkeeping are
      // paid once per run, not once per (run, query), and the engine
      // work once per group, not once per registration. Runs preserve
      // the batch's global arrival order, so per-partition order is
      // untouched for every query; the router's batch size already
      // bounds run length.
      ForEachPartitionRun(
          batch.events.data(), batch.events.size(), batch.events.size(),
          [&](uint32_t partition, const EventPtr* run, size_t run_length) {
            for (const ShardQuery& q : active_->queries) {
              PartitionState& state = StateFor(GroupStateFor(q), partition);
              sink_->set_current(q, partition);
              state.engine->OnBatch(run, run_length);
              if (q.members.front().metrics != nullptr) {
                for (const ShardMember& m : q.members) {
                  m.metrics->events_total->Inc(run_length);
                }
                RefreshMemoryGauge(q, partition, state);
                SyncMembersDelta(q.members.data(), q.members.size(),
                                 state.engine->counters(), &state.reported);
              }
            }
          });
    }
    batch.events.clear();
    batch.queries.reset();
  }
  // End of stream: finish the remaining groups in ascending id order so
  // Finish-time matches of this shard are recorded deterministically.
  if (active_ != nullptr) {
    for (const ShardQuery& q : active_->queries) {
      auto it = groups_.find(q.id);
      if (it != groups_.end()) FinishGroup(q, it->second);
    }
  }
}

Status ShardWorker::CaptureState(std::vector<PartitionSnapshot>* partitions,
                                 std::string* sink_entries) {
  std::vector<uint64_t> ids;
  for (const auto& [id, state] : groups_) {
    if (!state.finished) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (uint64_t id : ids) {
    GroupState& state = groups_.at(id);
    for (uint32_t partition : SortedPartitions(state)) {
      EngineStateWriter w;
      CEPJOIN_RETURN_IF_ERROR(
          state.partitions.at(partition).engine->SaveState(&w));
      PartitionSnapshot snap;
      snap.query = id;
      snap.partition = partition;
      snap.engine_state = w.Finish();
      partitions->push_back(std::move(snap));
    }
  }
  EngineStateWriter sw;
  sink_->SaveEntries(&sw);
  *sink_entries = sw.Finish();
  return Status::Ok();
}

Status ShardWorker::RestoreState(
    std::shared_ptr<const QuerySetSnapshot> snapshot,
    const std::vector<const PartitionSnapshot*>& partitions,
    const std::vector<const std::string*>& sink_blobs,
    const std::unordered_map<uint64_t, uint64_t>& query_remap, size_t shard,
    const std::function<size_t(uint32_t)>& shard_of) {
  if (!groups_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly started worker");
  }
  active_.reset();
  if (snapshot != nullptr) AdoptSnapshot(std::move(snapshot));
  for (const PartitionSnapshot* snap : partitions) {
    const ShardQuery* query = nullptr;
    if (active_ != nullptr) {
      for (const ShardQuery& q : active_->queries) {
        if (q.id == snap->query) {
          query = &q;
          break;
        }
      }
    }
    if (query == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint carries state for query id " +
          std::to_string(snap->query) + " absent from the active query set");
    }
    PartitionState& state = StateFor(GroupStateFor(*query), snap->partition);
    EngineStateReader reader(snap->engine_state);
    CEPJOIN_RETURN_IF_ERROR(reader.Init());
    CEPJOIN_RETURN_IF_ERROR(state.engine->LoadState(&reader));
    const EngineCounters& counters = state.engine->counters();
    // The restored engine counters include pre-checkpoint work; start
    // the delta-sync watermarks there so this process's registry
    // counters report only work done after the restore (counters are
    // process-local; a restart is a counter reset either way).
    state.reported.kernel_lanes = counters.instance_kernel_lanes;
    state.reported.kernel_blocks = counters.instance_kernel_blocks;
    state.reported.retractions = counters.retractions_processed;
    RefreshMemoryGauge(*query, snap->partition, state);
  }
  for (const std::string* blob : sink_blobs) {
    EngineStateReader reader(*blob);
    CEPJOIN_RETURN_IF_ERROR(reader.Init());
    CEPJOIN_RETURN_IF_ERROR(
        sink_->LoadEntries(&reader, shard, shard_of, query_remap));
  }
  return Status::Ok();
}

EngineCounters ShardWorker::CountersOf(uint64_t query) const {
  auto departed = departed_.find(query);
  if (departed != departed_.end()) return departed->second.counters;
  auto group = group_of_.find(query);
  if (group == group_of_.end()) return EngineCounters{};
  auto it = groups_.find(group->second);
  return it != groups_.end() ? it->second.counters : EngineCounters{};
}

size_t ShardWorker::NumPartitionsOf(uint64_t query) const {
  auto departed = departed_.find(query);
  if (departed != departed_.end()) return departed->second.plans.size();
  auto group = group_of_.find(query);
  if (group == group_of_.end()) return 0;
  auto it = groups_.find(group->second);
  return it != groups_.end() ? it->second.partitions.size() : 0;
}

const EnginePlan* ShardWorker::PlanFor(uint64_t query,
                                       uint32_t partition) const {
  auto departed = departed_.find(query);
  if (departed != departed_.end()) {
    auto pit = departed->second.plans.find(partition);
    return pit != departed->second.plans.end() ? &pit->second : nullptr;
  }
  auto group = group_of_.find(query);
  if (group == group_of_.end()) return nullptr;
  auto it = groups_.find(group->second);
  if (it == groups_.end()) return nullptr;
  auto pit = it->second.partitions.find(partition);
  return pit != it->second.partitions.end() ? &pit->second.plan : nullptr;
}

}  // namespace cepjoin
