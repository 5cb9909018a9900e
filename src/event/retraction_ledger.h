#ifndef CEPJOIN_EVENT_RETRACTION_LEDGER_H_
#define CEPJOIN_EVENT_RETRACTION_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "durable/snapshot_io.h"
#include "event/event.h"

namespace cepjoin {

/// Tracks live insertions of a delta stream so a retraction can be
/// resolved to the serial of the insertion it cancels. Owned by whoever
/// assigns serials — EventStream::Append for materialized streams, the
/// ingest merge for streamed sources — and, with dummy serials, by the
/// CSV sources for input validation before serials exist.
///
/// A retraction identifies its target by (type, partition, target_ts);
/// the ledger resolves that key to the most recent still-live insertion
/// carrying it. Duplicate keys (two live insertions of the same type,
/// partition and timestamp) resolve last-in-first-out, which is
/// deterministic and matches the "retract the most recent occurrence"
/// reading; real streams with real-valued timestamps essentially never
/// hit this case.
///
/// Layout: an append-only log of inserts in RecordInsert order — serial
/// order for every owner that assigns serials — where a resolved entry
/// is tombstoned in place, plus an open-addressing index from each live
/// key to its newest entry; older live entries of the same key chain
/// through `prev`. The log is compacted once tombstones outnumber live
/// entries, so RecordInsert and Resolve stay amortized O(1) and the
/// checkpoint encoding is one sequential pass over the log.
class RetractionLedger {
 public:
  /// Bytes SaveTo writes per live insertion.
  static constexpr size_t kEntryBytes = 24;

  /// Registers a live insertion. Call with every polarity=+1 event, in
  /// stream order.
  void RecordInsert(const Event& e);

  /// Resolves a retraction against the live set: fills r->target_serial
  /// with the serial of the (most recent) live insertion of
  /// (r->type, r->partition, r->target_ts) and removes it from the
  /// ledger. Fails if no such insertion is live — i.e. it was never
  /// inserted, or was already retracted.
  Status Resolve(Event* r);

  /// Distinct (type, partition, ts) keys with at least one live insert.
  size_t live_keys() const { return num_keys_; }
  /// Live (inserted, not yet retracted) insertions.
  size_t live_entries() const { return num_live_; }

  /// Checkpoint support: the live entries in log (serial) order, each
  /// as (type, partition, ts bits, serial). Serial order is canonical,
  /// so the bytes depend only on the live set, and reloading in the
  /// same order rebuilds the same LIFO resolution order.
  void SaveTo(SnapshotWriter* w) const;

  /// Replaces this ledger's state with a SaveTo encoding. Malformed
  /// input (truncation, an impossible count, serials not strictly
  /// increasing) latches on the reader; check r->status() after.
  void LoadFrom(SnapshotReader* r);

 private:
  /// Log positions are stored +1 so 0 can mean "none" in `prev` and in
  /// the index; this caps the log at 2^32 - 1 entries.
  static constexpr uint32_t kNone = 0;

  struct Entry {
    TypeId type;
    uint32_t partition;
    /// Timestamps key by exact bit pattern — a retraction must quote
    /// the insertion's timestamp verbatim, never a recomputation.
    uint64_t ts_bits;
    EventSerial serial;
    uint32_t prev;  // next-older live entry of the same key, or kNone
    bool live;
  };

  /// Index slot holding the key's newest live entry, or the empty slot
  /// where it would go. Requires a non-empty index.
  size_t FindSlot(TypeId type, uint32_t partition, uint64_t ts_bits) const;
  /// Empties slot `i`, shifting later probe-chain members back so every
  /// lookup still reaches its key without tombstone slots.
  void EraseSlot(size_t i);
  /// Rebuilds the index and the `prev` chains from the live entries of
  /// the log, in log order, sized so up to `max_keys` keys load it at
  /// most 1/2.
  void Reindex(size_t max_keys);
  /// Drops tombstones from the log, then reindexes.
  void Compact();

  std::vector<Entry> log_;
  /// Open-addressing (linear probing) index: log position + 1 of each
  /// live key's newest entry, kNone for an empty slot. Power-of-two
  /// size; empty until the first insert.
  std::vector<uint32_t> slots_;
  size_t num_keys_ = 0;
  size_t num_live_ = 0;
};

}  // namespace cepjoin

#endif  // CEPJOIN_EVENT_RETRACTION_LEDGER_H_
