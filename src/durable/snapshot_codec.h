#ifndef CEPJOIN_DURABLE_SNAPSHOT_CODEC_H_
#define CEPJOIN_DURABLE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "durable/snapshot_io.h"
#include "event/event.h"
#include "runtime/engine.h"
#include "runtime/match.h"

namespace cepjoin {

/// Version of the per-engine state encoding produced by EngineStateWriter
/// and the engines' SaveState overrides. Bump whenever a serialized field
/// is added, removed, or re-ordered — the checkpoint reader refuses
/// snapshots of a different version instead of misinterpreting them, and
/// the codec-manifest lint rule (tools/cep_lint.py) pins the field lists
/// in snapshot_codec.cc to this number.
inline constexpr uint32_t kEngineStateFormatVersion = 1;

/// Encoder for one engine's state blob. Events are interned: the first
/// reference writes the event into a dedup table, every reference (buffer
/// rows, instance slots, match slots) encodes as a table index. Decoding
/// reconstructs ONE Event object per table entry, so pointer identity —
/// which the engines' no-event-fills-two-slots checks compare — survives
/// the round trip exactly.
///
/// Layout of Finish(): [u32 table count][table entries][payload bytes].
class EngineStateWriter {
 public:
  /// The raw payload stream; engines write their non-event fields here.
  SnapshotWriter& payload() { return payload_; }

  /// Writes a reference to a (non-null) shared event into the payload.
  void EventRef(const EventPtr& e);
  /// Writes a possibly-null reference (tree instances' unbound slots).
  void NullableEventRef(const EventPtr& e);
  /// Writes a count-prefixed list of possibly-null references.
  void EventList(const std::vector<EventPtr>& events);
  void WriteMatch(const Match& m);
  void WriteCounters(const EngineCounters& c);

  /// Assembles the final blob: event table followed by the payload.
  std::string Finish();

 private:
  uint32_t Intern(const EventPtr& e);

  SnapshotWriter payload_;
  std::vector<EventPtr> table_;  // index order
  std::unordered_map<const Event*, uint32_t> index_;
};

/// Decoder for one engine's state blob. Construct, call Init() to parse
/// the event table, then mirror the SaveState read sequence. All reads
/// are bounds-checked: any truncation or malformed count latches a
/// DataLoss status on payload() and later reads return empty values, so
/// the caller checks status() once at the end.
class EngineStateReader {
 public:
  /// Borrows `bytes`; the buffer must outlive the reader.
  explicit EngineStateReader(const std::string& bytes) : reader_(bytes) {}

  /// Parses the event table; must be called (and succeed) before any
  /// payload read.
  [[nodiscard]] Status Init();

  SnapshotReader& payload() { return reader_; }

  EventPtr EventRef();
  EventPtr NullableEventRef();
  std::vector<EventPtr> EventList();
  Match ReadMatch();
  void ReadCounters(EngineCounters* c);

  const Status& status() const { return reader_.status(); }

 private:
  SnapshotReader reader_;
  std::vector<EventPtr> table_;
};

/// Makes `to` hold exactly `from`'s state by round-tripping it through
/// the codec (from.SaveState -> to->LoadState). `to` must be a freshly
/// built engine of the same pattern and plan; it keeps its own sink, so
/// finishing it flushes what `from` would flush now while `from` runs on.
[[nodiscard]] Status CopyEngineState(const Engine& from, Engine* to);

}  // namespace cepjoin

#endif  // CEPJOIN_DURABLE_SNAPSHOT_CODEC_H_
