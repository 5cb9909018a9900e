#include "parallel/sharded_runtime.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"

namespace cepjoin {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ShardedRuntime::ShardedRuntime(const ShardedOptions& options)
    : metrics_(options.metrics),
      router_(ResolveThreads(options.num_threads), options.batch_size,
              options.queue_capacity),
      concurrent_sink_(router_.num_shards()) {
  if (metrics_ != nullptr) {
    // Stamp each routed batch with its router-entry time: the anchor of
    // the ingest-to-match latency histograms. One clock read per batch.
    router_.set_stamp_ingest_time(true);
    shard_metrics_.reserve(router_.num_shards());
    for (size_t shard = 0; shard < router_.num_shards(); ++shard) {
      shard_metrics_.push_back(
          std::make_unique<ShardMetrics>(metrics_, shard));
    }
  }
  workers_.reserve(router_.num_shards());
  for (size_t shard = 0; shard < router_.num_shards(); ++shard) {
    workers_.push_back(std::make_unique<ShardWorker>(
        &router_.queue(shard), concurrent_sink_.shard(shard),
        metrics_ != nullptr ? shard_metrics_[shard].get() : nullptr));
  }
  try {
    for (auto& worker : workers_) worker->Start();
  } catch (...) {
    // Thread creation failed partway: close the queues so the workers
    // already started can exit, letting ~ShardWorker join them instead
    // of deadlocking on a never-closed queue.
    router_.CloseAll();
    throw;
  }
}

ShardedRuntime::ShardedRuntime(const SimplePattern& pattern,
                               const EventStream& history, size_t num_types,
                               const std::string& algorithm, MatchSink* sink,
                               const ShardedOptions& options, uint64_t seed,
                               double latency_alpha)
    : ShardedRuntime(options) {
  CEPJOIN_CHECK(sink != nullptr);
  // The legacy constructor promises a ready runtime or an abort; the
  // planner itself aborts on unknown algorithms, matching that contract.
  AddQuery(std::make_unique<PartitionPlanner>(pattern, history, num_types,
                                              algorithm, seed, latency_alpha),
           sink)
      .value();
}

ShardedRuntime::~ShardedRuntime() {
  // Release the workers even if the caller never called Finish();
  // buffered matches are dropped in that case, mirroring an engine
  // destroyed before Finish().
  router_.CloseAll();
  for (auto& worker : workers_) worker->Join();
}

StatusOr<uint64_t> ShardedRuntime::AddQuery(
    std::unique_ptr<PartitionPlanner> planner, MatchSink* sink) {
  return AddQuery(std::move(planner), sink, nullptr);
}

StatusOr<uint64_t> ShardedRuntime::AddQuery(
    std::unique_ptr<PartitionPlanner> planner, MatchSink* sink,
    QueryMetrics* metrics) {
  CEPJOIN_CHECK(planner != nullptr);
  if (finished_) {
    return Status::FailedPrecondition("AddQuery after Finish");
  }
  GroupEntry group;
  group.planner = std::move(planner);
  groups_.emplace(next_query_id_, std::move(group));
  return AddMember(next_query_id_, sink, metrics);
}

StatusOr<uint64_t> ShardedRuntime::JoinQuery(uint64_t member, MatchSink* sink,
                                             QueryMetrics* metrics) {
  auto it = queries_.find(member);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(member));
  }
  if (finished_) {
    return Status::FailedPrecondition("JoinQuery after Finish");
  }
  CEPJOIN_CHECK(it->second.active) << "JoinQuery through a removed member";
  return AddMember(it->second.group, sink, metrics);
}

StatusOr<uint64_t> ShardedRuntime::AddMember(uint64_t group, MatchSink* sink,
                                             QueryMetrics* metrics) {
  CEPJOIN_CHECK(sink != nullptr);
  uint64_t id = next_query_id_++;
  QueryEntry entry;
  entry.group = group;
  entry.sink = sink;
  entry.active = true;
  if (metrics_ != nullptr) {
    if (metrics != nullptr) {
      entry.metrics = metrics;
    } else {
      entry.owned_metrics = std::make_unique<QueryMetrics>(
          metrics_, MetricLabels{{"query", std::to_string(id)}});
      entry.metrics = entry.owned_metrics.get();
    }
  }
  queries_.emplace(id, std::move(entry));
  groups_.at(group).members.push_back(id);
  PublishSnapshot();
  return id;
}

Status ShardedRuntime::RemoveQuery(uint64_t query) {
  auto it = queries_.find(query);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (finished_) {
    return Status::FailedPrecondition("RemoveQuery after Finish");
  }
  if (!it->second.active) {
    return Status::FailedPrecondition("query " + std::to_string(query) +
                                      " already removed");
  }
  it->second.active = false;
  it->second.left_at = ++groups_.at(it->second.group).generation;
  PublishSnapshot();
  return Status::Ok();
}

void ShardedRuntime::PublishSnapshot() {
  // Events routed so far must be evaluated under the set that was
  // active when they arrived: flush them under the old snapshot before
  // stamping the new one.
  router_.FlushAll();
  auto snapshot = std::make_shared<QuerySetSnapshot>();
  snapshot->epoch = ++epoch_;
  for (const auto& [id, group] : groups_) {
    ShardQuery q;
    q.id = id;
    q.planner = group.planner.get();
    q.generation = group.generation;
    for (uint64_t member : group.members) {
      const QueryEntry& entry = queries_.at(member);
      if (entry.active) q.members.push_back({member, entry.metrics});
    }
    if (!q.members.empty()) snapshot->queries.push_back(std::move(q));
  }
  snapshot_ = snapshot;
  router_.set_query_snapshot(std::move(snapshot));
}

Status ShardedRuntime::RunOnWorker(
    size_t shard, const std::function<void(ShardWorker*)>& fn) {
  Notification done;
  EventBatch batch;
  // The worker adopts the current query set first, so a query removed
  // before this call is finished (its trailing matches buffered) before
  // the callback runs.
  batch.queries = snapshot_;
  batch.control = std::make_shared<const std::function<void(ShardWorker*)>>(
      [&fn, &done](ShardWorker* worker) {
        fn(worker);
        done.Notify();
      });
  if (!router_.queue(shard).Push(std::move(batch))) {
    return Status::FailedPrecondition("shard queue closed");
  }
  // The Notification's mutex publishes everything the callback wrote
  // (the captured snapshot / restored engines) to this thread.
  done.WaitForNotification();
  return Status::Ok();
}

Status ShardedRuntime::CaptureCheckpoint(ShardedCheckpoint* out) {
  CEPJOIN_CHECK(out != nullptr);
  if (finished_) {
    return Status::FailedPrecondition("CaptureCheckpoint after Finish");
  }
  // Events buffered in the router must be inside the cut: push them to
  // the queues ahead of our control batches.
  router_.FlushAll();
  out->partitions.clear();
  out->sink_blobs.clear();
  out->sink_blobs.reserve(workers_.size());
  out->groups.clear();
  for (const auto& [id, entry] : queries_) {
    out->groups.push_back({id, entry.group, entry.left_at});
  }
  Status capture = Status::Ok();
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    std::string sink_blob;
    CEPJOIN_RETURN_IF_ERROR(RunOnWorker(shard, [&](ShardWorker* worker) {
      Status s = worker->CaptureState(&out->partitions, &sink_blob);
      if (capture.ok() && !s.ok()) capture = s;
    }));
    out->sink_blobs.push_back(std::move(sink_blob));
  }
  return capture;
}

Status ShardedRuntime::RestoreCheckpoint(
    const ShardedCheckpoint& checkpoint,
    const std::unordered_map<uint64_t, uint64_t>& query_remap) {
  if (finished_) {
    return Status::FailedPrecondition("RestoreCheckpoint after Finish");
  }
  if (router_.events_routed() != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a runtime that has not routed events");
  }
  CEPJOIN_RETURN_IF_ERROR(RestoreGroups(checkpoint.groups, query_remap));
  // Group the engine blobs by the shard owning each partition HERE —
  // this is where a checkpoint cut at 4 threads redistributes onto 2.
  std::vector<std::vector<const PartitionSnapshot*>> by_shard(workers_.size());
  for (const PartitionSnapshot& snap : checkpoint.partitions) {
    by_shard[router_.ShardOf(snap.partition)].push_back(&snap);
  }
  std::vector<const std::string*> sink_blobs;
  sink_blobs.reserve(checkpoint.sink_blobs.size());
  for (const std::string& blob : checkpoint.sink_blobs) {
    sink_blobs.push_back(&blob);
  }
  const std::function<size_t(uint32_t)> shard_of =
      [this](uint32_t partition) { return router_.ShardOf(partition); };
  Status restore = Status::Ok();
  for (size_t shard = 0; shard < workers_.size(); ++shard) {
    CEPJOIN_RETURN_IF_ERROR(RunOnWorker(shard, [&, shard](ShardWorker* w) {
      Status s = w->RestoreState(snapshot_, by_shard[shard], sink_blobs,
                                 query_remap, shard, shard_of);
      if (restore.ok() && !s.ok()) restore = s;
    }));
  }
  return restore;
}

Status ShardedRuntime::RestoreGroups(
    const std::vector<QueryGroupSnapshot>& saved,
    const std::unordered_map<uint64_t, uint64_t>& query_remap) {
  std::map<uint64_t, QueryGroupSnapshot> layout;  // by this runtime's id
  for (const QueryGroupSnapshot& snap : saved) {
    auto query = query_remap.find(snap.query);
    auto group = query_remap.find(snap.group);
    if (query == query_remap.end() || group == query_remap.end() ||
        queries_.count(query->second) == 0) {
      return Status::FailedPrecondition(
          "checkpoint groups name runtime query id " +
          std::to_string(snap.query) + " unknown to this runtime");
    }
    layout[query->second] = {query->second, group->second, snap.left_at};
  }
  bool unchanged = layout.size() == queries_.size();
  for (const auto& [id, entry] : queries_) {
    auto it = layout.find(id);
    if (it == layout.end()) {
      return Status::FailedPrecondition(
          "checkpoint groups omit runtime query id " + std::to_string(id));
    }
    const QueryGroupSnapshot& snap = it->second;
    auto forming = layout.find(snap.group);
    if (forming == layout.end() || forming->second.group != snap.group ||
        snap.group > id ||
        (snap.left_at == ConcurrentMatchSink::kSoloGeneration) !=
            entry.active) {
      return Status::FailedPrecondition(
          "checkpoint groups are inconsistent at runtime query id " +
          std::to_string(id));
    }
    unchanged &= snap.group == entry.group && snap.left_at == entry.left_at;
  }
  if (unchanged) return Status::Ok();
  // Rebuild every group; a recorded group takes a copy of the planner
  // currently serving its forming registration (equal specs, so equal
  // planners).
  std::map<uint64_t, GroupEntry> groups;
  for (auto& [id, entry] : queries_) {
    const QueryGroupSnapshot& snap = layout.at(id);
    GroupEntry& group = groups[snap.group];
    if (group.planner == nullptr) {
      group.planner = std::make_unique<PartitionPlanner>(
          *groups_.at(queries_.at(snap.group).group).planner);
    }
    group.members.push_back(id);
    if (!entry.active) ++group.generation;
    entry.group = snap.group;
    entry.left_at = snap.left_at;
  }
  groups_ = std::move(groups);
  PublishSnapshot();
  return Status::Ok();
}

void ShardedRuntime::OnEvent(const EventPtr& e) {
  CEPJOIN_CHECK(!finished_) << "OnEvent after Finish";
  router_.Route(e);
}

void ShardedRuntime::OnBatch(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnBatch after Finish";
  for (size_t i = 0; i < n; ++i) router_.Route(events[i]);
}

void ShardedRuntime::OnPartitionRun(const EventPtr* events, size_t n) {
  CEPJOIN_CHECK(!finished_) << "OnPartitionRun after Finish";
  router_.RouteRun(events, n);
}

void ShardedRuntime::ProcessStream(const EventStream& stream) {
  OnBatch(stream.events().data(), stream.size());
}

void ShardedRuntime::Finish() {
  if (finished_) return;
  finished_ = true;
  router_.CloseAll();
  for (auto& worker : workers_) worker->Join();
  // A group's entry goes to the members that had not left when it was
  // recorded, in registration order; a solo entry to its one member.
  std::map<std::pair<uint64_t, uint32_t>, std::vector<MatchSink*>> recipients;
  concurrent_sink_.DrainPerQuery(
      [&](uint64_t query,
          uint32_t generation) -> const std::vector<MatchSink*>& {
        auto [it, inserted] = recipients.try_emplace({query, generation});
        if (!inserted) return it->second;
        if (generation == ConcurrentMatchSink::kSoloGeneration) {
          auto q = queries_.find(query);
          if (q != queries_.end()) it->second.push_back(q->second.sink);
          return it->second;
        }
        auto group = groups_.find(query);
        if (group == groups_.end()) return it->second;
        for (uint64_t member : group->second.members) {
          const QueryEntry& entry = queries_.at(member);
          if (entry.left_at > generation) it->second.push_back(entry.sink);
        }
        return it->second;
      });
}

StatusOr<size_t> ShardedRuntime::NumPartitionsOf(uint64_t query) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    // Reading worker state while workers still run would be a data
    // race, and a partial count would be silently wrong anyway.
    return Status::FailedPrecondition(
        "NumPartitionsOf before Finish: partition counts are only "
        "complete once the workers have been joined");
  }
  size_t total = 0;
  for (const auto& worker : workers_) total += worker->NumPartitionsOf(query);
  return total;
}

StatusOr<EngineCounters> ShardedRuntime::CountersOf(uint64_t query) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    return Status::FailedPrecondition("CountersOf before Finish");
  }
  EngineCounters total;
  for (const auto& worker : workers_) {
    total.MergeDisjoint(worker->CountersOf(query));
  }
  return total;
}

StatusOr<const EnginePlan*> ShardedRuntime::PlanOf(uint64_t query,
                                                   uint32_t partition) const {
  if (queries_.find(query) == queries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query));
  }
  if (!finished_) {
    return Status::FailedPrecondition("PlanOf before Finish");
  }
  size_t shard = router_.ShardOf(partition);
  const EnginePlan* plan = workers_[shard]->PlanFor(query, partition);
  if (plan == nullptr) {
    return Status::NotFound("no events seen for partition " +
                            std::to_string(partition));
  }
  return plan;
}

uint64_t ShardedRuntime::SoleQueryId() const {
  CEPJOIN_CHECK_EQ(queries_.size(), 1u)
      << "single-query accessor on a multi-query runtime";
  return queries_.begin()->first;
}

size_t ShardedRuntime::num_partitions() const {
  CEPJOIN_CHECK(finished_) << "num_partitions before Finish";
  return NumPartitionsOf(SoleQueryId()).value();
}

const EnginePlan& ShardedRuntime::PlanFor(uint32_t partition) const {
  CEPJOIN_CHECK(finished_) << "PlanFor before Finish";
  StatusOr<const EnginePlan*> plan = PlanOf(SoleQueryId(), partition);
  CEPJOIN_CHECK(plan.ok()) << plan.status().ToString();
  return **plan;
}

EngineCounters ShardedRuntime::TotalCounters() const {
  CEPJOIN_CHECK(finished_) << "TotalCounters before Finish";
  return CountersOf(SoleQueryId()).value();
}

}  // namespace cepjoin
