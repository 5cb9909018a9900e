#include "durable/snapshot_codec.h"

#include <memory>
#include <utility>

namespace cepjoin {

// ===== CODEC MANIFEST ====================================================
// Pinned by tools/cep_lint.py (rule: codec-manifest). Every mutable data
// member of the classes below must appear on exactly one side: serialized
// (encoded by SaveState/WriteCounters and decoded in the same order) or
// rebuilt (reconstructed from the (pattern, plan) at engine construction,
// or transient per-batch scratch). Adding a member without updating the
// matching list — and bumping kEngineStateFormatVersion when a serialized
// list changes — fails the lint ctest, which is the point: silent state
// loss across a checkpoint is the one durability bug no test stream is
// guaranteed to catch.
//
// codec-manifest: EngineCounters serialized = events_processed
//   instances_created matches_emitted predicate_evals
//   instance_kernel_lanes instance_kernel_blocks retractions_processed
//   matches_revoked live_instances peak_live_instances buffered_events
//   peak_buffered_events instance_bytes buffered_bytes store_bytes
//   peak_total_bytes
//
// codec-manifest: NfaEngine serialized = buffers_ by_state_ pending_
//   emitted_ emitted_scan_threshold_ now_ current_serial_
//   events_since_sweep_ counters_
// codec-manifest: NfaEngine rebuilt = cp_ plan_ sink_ step_pos_
//   kleene_step_ steps_of_type_ checks_at_state_ completion_checks_
//   trailing_checks_ arrival_start_ next_match_ track_deltas_
//   use_columnar_
//
// codec-manifest: TreeEngine serialized = node_buffers_ neg_buffers_
//   pending_ emitted_ emitted_scan_threshold_ now_ current_serial_
//   events_since_sweep_ counters_
// codec-manifest: TreeEngine rebuilt = cp_ plan_ sink_ kleene_pos_
//   leaves_of_type_ cross_pairs_ checks_at_node_ completion_checks_
//   trailing_checks_ leaf_columns_ leaf_mirrored_ instance_stores_
//   instance_mirrored_ arrival_start_ next_match_ track_deltas_
//   use_columnar_
// (leaf_columns_ / instance_stores_ are mirrors of node_buffers_: restore
// replays the NewInstance append path per decoded instance, so lane k ==
// instance k congruence holds by construction.)
// =========================================================================

uint32_t EngineStateWriter::Intern(const EventPtr& e) {
  auto [it, inserted] =
      index_.emplace(e.get(), static_cast<uint32_t>(table_.size()));
  if (inserted) table_.push_back(e);
  return it->second;
}

void EngineStateWriter::EventRef(const EventPtr& e) {
  payload_.U32(Intern(e));
}

void EngineStateWriter::NullableEventRef(const EventPtr& e) {
  // 0 = null; otherwise table index + 1.
  payload_.U32(e == nullptr ? 0 : Intern(e) + 1);
}

void EngineStateWriter::EventList(const std::vector<EventPtr>& events) {
  payload_.U64(events.size());
  for (const EventPtr& e : events) NullableEventRef(e);
}

void EngineStateWriter::WriteMatch(const Match& m) {
  payload_.U64(m.slots.size());
  for (const auto& slot : m.slots) {
    payload_.U64(slot.size());
    for (const EventPtr& e : slot) EventRef(e);
  }
  payload_.F64(m.last_ts);
  payload_.U64(m.last_event_serial);
  payload_.U64(m.emit_serial);
  payload_.F64(m.latency_seconds);
  payload_.U32(static_cast<uint32_t>(m.subpattern));
  payload_.I8(m.polarity);
}

void EngineStateWriter::WriteCounters(const EngineCounters& c) {
  payload_.U64(c.events_processed);
  payload_.U64(c.instances_created);
  payload_.U64(c.matches_emitted);
  payload_.U64(c.predicate_evals);
  payload_.U64(c.instance_kernel_lanes);
  payload_.U64(c.instance_kernel_blocks);
  payload_.U64(c.retractions_processed);
  payload_.U64(c.matches_revoked);
  payload_.U64(c.live_instances);
  payload_.U64(c.peak_live_instances);
  payload_.U64(c.buffered_events);
  payload_.U64(c.peak_buffered_events);
  payload_.U64(c.instance_bytes);
  payload_.U64(c.buffered_bytes);
  payload_.U64(c.store_bytes);
  payload_.U64(c.peak_total_bytes);
}

std::string EngineStateWriter::Finish() {
  SnapshotWriter out;
  out.U32(static_cast<uint32_t>(table_.size()));
  for (const EventPtr& e : table_) {
    out.U32(e->type);
    out.U64(e->serial);
    out.U32(e->partition);
    out.I8(e->polarity);
    out.U64(e->partition_seq);
    out.F64(e->ts);
    out.F64(e->target_ts);
    out.U64(e->target_serial);
    out.U32(static_cast<uint32_t>(e->attrs.size()));
    for (size_t a = 0; a < e->attrs.size(); ++a) out.F64(e->attrs[a]);
  }
  out.Raw(payload_.bytes().data(), payload_.size());
  return std::move(out.Take());
}

Status EngineStateReader::Init() {
  uint32_t count = reader_.U32();
  // Each table entry is at least 46 bytes; reject impossible counts
  // before reserving memory for them.
  if (reader_.ok() &&
      static_cast<uint64_t>(count) * 46 > reader_.remaining()) {
    reader_.Fail("event table count " + std::to_string(count) +
                 " exceeds remaining bytes");
  }
  if (!reader_.ok()) return reader_.status();
  table_.reserve(count);
  for (uint32_t i = 0; i < count && reader_.ok(); ++i) {
    auto e = std::make_shared<Event>();
    e->type = reader_.U32();
    e->serial = reader_.U64();
    e->partition = reader_.U32();
    e->polarity = reader_.I8();
    e->partition_seq = reader_.U64();
    e->ts = reader_.F64();
    e->target_ts = reader_.F64();
    e->target_serial = reader_.U64();
    uint32_t num_attrs = reader_.U32();
    if (static_cast<uint64_t>(num_attrs) * 8 > reader_.remaining()) {
      reader_.Fail("attr count " + std::to_string(num_attrs) +
                   " exceeds remaining bytes");
      break;
    }
    e->attrs.resize(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) e->attrs[a] = reader_.F64();
    table_.push_back(std::move(e));
  }
  return reader_.status();
}

EventPtr EngineStateReader::EventRef() {
  uint32_t idx = reader_.U32();
  if (!reader_.ok()) return nullptr;
  if (idx >= table_.size()) {
    reader_.Fail("event reference " + std::to_string(idx) +
                 " out of table range " + std::to_string(table_.size()));
    return nullptr;
  }
  return table_[idx];
}

EventPtr EngineStateReader::NullableEventRef() {
  uint32_t idx = reader_.U32();
  if (!reader_.ok() || idx == 0) return nullptr;
  if (idx - 1 >= table_.size()) {
    reader_.Fail("event reference " + std::to_string(idx - 1) +
                 " out of table range " + std::to_string(table_.size()));
    return nullptr;
  }
  return table_[idx - 1];
}

std::vector<EventPtr> EngineStateReader::EventList() {
  uint64_t n = reader_.U64();
  // Each reference is 4 bytes.
  if (reader_.ok() && n * 4 > reader_.remaining()) {
    reader_.Fail("event list length " + std::to_string(n) +
                 " exceeds remaining bytes");
  }
  std::vector<EventPtr> out;
  if (!reader_.ok()) return out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n && reader_.ok(); ++i) {
    out.push_back(NullableEventRef());
  }
  return out;
}

Match EngineStateReader::ReadMatch() {
  Match m;
  uint64_t num_slots = reader_.U64();
  if (reader_.ok() && num_slots * 8 > reader_.remaining()) {
    reader_.Fail("match slot count " + std::to_string(num_slots) +
                 " exceeds remaining bytes");
  }
  if (!reader_.ok()) return m;
  m.slots.resize(static_cast<size_t>(num_slots));
  for (uint64_t s = 0; s < num_slots && reader_.ok(); ++s) {
    uint64_t n = reader_.U64();
    if (n * 4 > reader_.remaining()) {
      reader_.Fail("match slot length " + std::to_string(n) +
                   " exceeds remaining bytes");
      return m;
    }
    m.slots[s].reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && reader_.ok(); ++i) {
      EventPtr e = EventRef();
      if (e != nullptr) m.slots[s].push_back(std::move(e));
    }
  }
  m.last_ts = reader_.F64();
  m.last_event_serial = reader_.U64();
  m.emit_serial = reader_.U64();
  m.latency_seconds = reader_.F64();
  m.subpattern = static_cast<int>(reader_.U32());
  m.polarity = reader_.I8();
  return m;
}

void EngineStateReader::ReadCounters(EngineCounters* c) {
  c->events_processed = reader_.U64();
  c->instances_created = reader_.U64();
  c->matches_emitted = reader_.U64();
  c->predicate_evals = reader_.U64();
  c->instance_kernel_lanes = reader_.U64();
  c->instance_kernel_blocks = reader_.U64();
  c->retractions_processed = reader_.U64();
  c->matches_revoked = reader_.U64();
  c->live_instances = static_cast<size_t>(reader_.U64());
  c->peak_live_instances = static_cast<size_t>(reader_.U64());
  c->buffered_events = static_cast<size_t>(reader_.U64());
  c->peak_buffered_events = static_cast<size_t>(reader_.U64());
  c->instance_bytes = static_cast<size_t>(reader_.U64());
  c->buffered_bytes = static_cast<size_t>(reader_.U64());
  c->store_bytes = static_cast<size_t>(reader_.U64());
  c->peak_total_bytes = static_cast<size_t>(reader_.U64());
}

Status CopyEngineState(const Engine& from, Engine* to) {
  EngineStateWriter writer;
  CEPJOIN_RETURN_IF_ERROR(from.SaveState(&writer));
  const std::string bytes = writer.Finish();
  EngineStateReader reader(bytes);  // borrows `bytes`
  CEPJOIN_RETURN_IF_ERROR(reader.Init());
  return to->LoadState(&reader);
}

}  // namespace cepjoin
