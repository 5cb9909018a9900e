#include "event/retraction_ledger.h"

#include <cstring>
#include <string>

#include "common/check.h"

namespace cepjoin {

namespace {

/// Log positions + 1 must fit the uint32_t links.
constexpr uint64_t kMaxLogEntries = UINT32_MAX;

uint64_t TsBits(Timestamp ts) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(ts), "Timestamp must be 64-bit");
  std::memcpy(&bits, &ts, sizeof(bits));
  return bits;
}

void StoreLittleEndian(char* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

size_t KeyHash(TypeId type, uint32_t partition, uint64_t ts_bits) {
  uint64_t h = ts_bits;
  h ^= (static_cast<uint64_t>(type) << 32) ^ partition;
  // 64-bit mix (splitmix64 finalizer).
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

}  // namespace

void RetractionLedger::RecordInsert(const Event& e) {
  CEPJOIN_CHECK_LT(log_.size(), kMaxLogEntries)
      << "retraction ledger holds 2^32 - 1 entries";
  // Keys never outnumber live entries, so sizing for one more live
  // entry keeps the load at most 1/2 after this insert.
  if (2 * (num_keys_ + 1) > slots_.size()) Reindex(num_live_ + 1);
  const uint64_t ts_bits = TsBits(e.ts);
  uint32_t& head = slots_[FindSlot(e.type, e.partition, ts_bits)];
  if (head == kNone) ++num_keys_;
  log_.push_back(Entry{e.type, e.partition, ts_bits, e.serial, head, true});
  head = static_cast<uint32_t>(log_.size());
  ++num_live_;
}

Status RetractionLedger::Resolve(Event* r) {
  const uint64_t ts_bits = TsBits(r->target_ts);
  size_t slot = 0;
  if (!slots_.empty()) slot = FindSlot(r->type, r->partition, ts_bits);
  if (slots_.empty() || slots_[slot] == kNone) {
    return Status::InvalidArgument(
        "retraction targets no live insertion (type " +
        std::to_string(r->type) + ", partition " +
        std::to_string(r->partition) + ", ts " +
        std::to_string(r->target_ts) +
        "): never inserted or already retracted");
  }
  Entry& target = log_[slots_[slot] - 1];
  r->target_serial = target.serial;
  target.live = false;
  --num_live_;
  if (target.prev != kNone) {
    slots_[slot] = target.prev;
  } else {
    EraseSlot(slot);
    --num_keys_;
  }
  if (log_.size() - num_live_ > num_live_) Compact();
  return Status::Ok();
}

void RetractionLedger::SaveTo(SnapshotWriter* w) const {
  w->U64(num_live_);
  // Encoded in blocks: one writer append per block instead of four per
  // entry keeps the capture a plain sequential copy. The bytes are the
  // writer's own little-endian U32/U32/U64/U64 fields.
  char block[kEntryBytes * 512];
  size_t used = 0;
  for (const Entry& e : log_) {
    if (!e.live) continue;
    char* out = block + used;
    StoreLittleEndian(out, e.type, 4);
    StoreLittleEndian(out + 4, e.partition, 4);
    StoreLittleEndian(out + 8, e.ts_bits, 8);
    StoreLittleEndian(out + 16, e.serial, 8);
    used += kEntryBytes;
    if (used == sizeof(block)) {
      w->Raw(block, used);
      used = 0;
    }
  }
  w->Raw(block, used);
}

void RetractionLedger::LoadFrom(SnapshotReader* r) {
  log_.clear();
  const uint64_t n = r->U64();
  // Reject impossible counts before reserving memory for them.
  if (r->ok() && (n > r->remaining() / kEntryBytes || n > kMaxLogEntries)) {
    r->Fail("retraction ledger count " + std::to_string(n) +
            " exceeds remaining bytes");
  }
  if (r->ok()) log_.reserve(n);
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    Entry e{};
    e.type = r->U32();
    e.partition = r->U32();
    e.ts_bits = r->U64();
    e.serial = r->U64();
    e.live = true;
    // Strictly increasing serials are what makes the encoding canonical
    // and the log order the insertion order.
    if (r->ok() && !log_.empty() && e.serial <= log_.back().serial) {
      r->Fail("retraction ledger serial " + std::to_string(e.serial) +
              " does not follow " + std::to_string(log_.back().serial));
    }
    if (r->ok()) log_.push_back(e);
  }
  if (!r->ok()) log_.clear();
  num_live_ = log_.size();
  Reindex(num_live_);
}

size_t RetractionLedger::FindSlot(TypeId type, uint32_t partition,
                                  uint64_t ts_bits) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = KeyHash(type, partition, ts_bits) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == kNone) return i;
    const Entry& e = log_[slots_[i] - 1];
    if (e.ts_bits == ts_bits && e.type == type && e.partition == partition) {
      return i;
    }
  }
}

void RetractionLedger::EraseSlot(size_t i) {
  const size_t mask = slots_.size() - 1;
  for (size_t j = (i + 1) & mask; slots_[j] != kNone; j = (j + 1) & mask) {
    const Entry& e = log_[slots_[j] - 1];
    const size_t home = KeyHash(e.type, e.partition, e.ts_bits) & mask;
    // The member at j may fill the hole at i unless its home slot lies
    // cyclically in (i, j]: probing from there would never reach i.
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = kNone;
}

void RetractionLedger::Reindex(size_t max_keys) {
  size_t capacity = 16;
  while (capacity < 2 * max_keys) capacity *= 2;
  slots_.assign(capacity, kNone);
  num_keys_ = 0;
  for (size_t i = 0; i < log_.size(); ++i) {
    Entry& e = log_[i];
    if (!e.live) continue;
    uint32_t& head = slots_[FindSlot(e.type, e.partition, e.ts_bits)];
    if (head == kNone) ++num_keys_;
    e.prev = head;
    head = static_cast<uint32_t>(i + 1);
  }
}

void RetractionLedger::Compact() {
  size_t kept = 0;
  for (const Entry& e : log_) {
    if (e.live) log_[kept++] = e;
  }
  log_.resize(kept);
  Reindex(num_live_);
}

}  // namespace cepjoin
