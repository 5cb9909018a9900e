#include "event/retraction_ledger.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace cepjoin {
namespace {

Event Insert(TypeId type, uint32_t partition, Timestamp ts,
             EventSerial serial) {
  Event e;
  e.type = type;
  e.partition = partition;
  e.ts = ts;
  e.serial = serial;
  return e;
}

Event Retraction(TypeId type, uint32_t partition, Timestamp target_ts) {
  Event r;
  r.type = type;
  r.partition = partition;
  r.polarity = -1;
  r.ts = target_ts;
  r.target_ts = target_ts;
  return r;
}

/// Resolves a retraction of (type, partition, ts); returns the resolved
/// serial, or -1 when the ledger refuses it.
int64_t Retract(RetractionLedger* ledger, TypeId type, uint32_t partition,
                Timestamp ts) {
  Event r = Retraction(type, partition, ts);
  if (!ledger->Resolve(&r).ok()) return -1;
  return static_cast<int64_t>(r.target_serial);
}

std::string Encode(const RetractionLedger& ledger) {
  SnapshotWriter w;
  ledger.SaveTo(&w);
  return w.bytes();
}

TEST(RetractionLedgerTest, DuplicateKeysResolveLastInFirstOut) {
  RetractionLedger ledger;
  ledger.RecordInsert(Insert(1, 3, 2.5, 10));
  ledger.RecordInsert(Insert(1, 4, 2.5, 11));  // other partition
  ledger.RecordInsert(Insert(1, 3, 2.5, 12));
  ledger.RecordInsert(Insert(2, 3, 2.5, 13));  // other type
  ledger.RecordInsert(Insert(1, 3, 2.5, 14));
  EXPECT_EQ(ledger.live_entries(), 5u);
  EXPECT_EQ(ledger.live_keys(), 3u);

  EXPECT_EQ(Retract(&ledger, 1, 3, 2.5), 14);
  EXPECT_EQ(Retract(&ledger, 1, 3, 2.5), 12);
  // A re-insert of a partly retracted key becomes its newest entry.
  ledger.RecordInsert(Insert(1, 3, 2.5, 15));
  EXPECT_EQ(Retract(&ledger, 1, 3, 2.5), 15);
  EXPECT_EQ(Retract(&ledger, 1, 3, 2.5), 10);
  EXPECT_EQ(Retract(&ledger, 1, 3, 2.5), -1);
  EXPECT_EQ(ledger.live_entries(), 2u);
  EXPECT_EQ(ledger.live_keys(), 2u);
  EXPECT_EQ(Retract(&ledger, 1, 4, 2.5), 11);
  EXPECT_EQ(Retract(&ledger, 2, 3, 2.5), 13);
  EXPECT_EQ(ledger.live_entries(), 0u);
  EXPECT_EQ(ledger.live_keys(), 0u);
}

TEST(RetractionLedgerTest, MissingAndDoubleRetractionsAreRefused) {
  const std::string expected =
      "retraction targets no live insertion (type 2, partition 7, ts "
      "1.500000): never inserted or already retracted";
  RetractionLedger ledger;
  Event never = Retraction(2, 7, 1.5);
  Status status = ledger.Resolve(&never);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), expected);

  ledger.RecordInsert(Insert(2, 7, 1.5, 4));
  Event first = Retraction(2, 7, 1.5);
  ASSERT_TRUE(ledger.Resolve(&first).ok());
  EXPECT_EQ(first.target_serial, 4u);
  Event twice = Retraction(2, 7, 1.5);
  status = ledger.Resolve(&twice);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), expected);
  EXPECT_EQ(twice.target_serial, 0u);
}

TEST(RetractionLedgerTest, TimestampsMatchByExactBits) {
  RetractionLedger ledger;
  ledger.RecordInsert(Insert(0, 0, 0.1 + 0.2, 1));
  EXPECT_EQ(Retract(&ledger, 0, 0, 0.3), -1);
  EXPECT_EQ(Retract(&ledger, 0, 0, 0.1 + 0.2), 1);
}

TEST(RetractionLedgerTest, SaveLoadSaveIsByteIdentical) {
  RetractionLedger ledger;
  for (EventSerial s = 0; s < 40; ++s) {
    ledger.RecordInsert(Insert(s % 3, s % 5, static_cast<double>(s % 7), s));
  }
  for (EventSerial s = 0; s < 40; s += 4) {
    ASSERT_GE(Retract(&ledger, s % 3, s % 5, static_cast<double>(s % 7)), 0);
  }
  const std::string bytes = Encode(ledger);
  EXPECT_EQ(bytes.size(),
            8 + RetractionLedger::kEntryBytes * ledger.live_entries());

  RetractionLedger loaded;
  loaded.RecordInsert(Insert(9, 9, 9.0, 99));  // replaced by LoadFrom
  SnapshotReader r(bytes);
  loaded.LoadFrom(&r);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Encode(loaded), bytes);
  EXPECT_EQ(loaded.live_entries(), ledger.live_entries());
  EXPECT_EQ(loaded.live_keys(), ledger.live_keys());
  EXPECT_EQ(Retract(&loaded, 9, 9, 9.0), -1);

  // The reload resolves every key in the original's LIFO order.
  for (EventSerial s = 0; s < 40; ++s) {
    const TypeId type = s % 3;
    const uint32_t partition = s % 5;
    const double ts = static_cast<double>(s % 7);
    EXPECT_EQ(Retract(&loaded, type, partition, ts),
              Retract(&ledger, type, partition, ts));
  }
  EXPECT_EQ(loaded.live_entries(), 0u);
}

TEST(RetractionLedgerTest, SameLiveSetEncodesIdentically) {
  // History A: inserts serials 0..199 on 20 keys, then retracts the two
  // newest entries of keys 0 and 1.
  RetractionLedger a;
  for (EventSerial s = 0; s < 200; ++s) {
    a.RecordInsert(Insert(0, s % 20, 1.0, s));
  }
  for (uint32_t key = 0; key < 2; ++key) {
    ASSERT_EQ(Retract(&a, 0, key, 1.0), 180 + key);
    ASSERT_EQ(Retract(&a, 0, key, 1.0), 160 + key);
  }
  // History B: never inserts those four, but inserts and retracts 500
  // unrelated events in between — enough to force several compactions.
  RetractionLedger b;
  for (EventSerial s = 0; s < 200; ++s) {
    if (s % 20 < 2 && s >= 160) continue;
    b.RecordInsert(Insert(0, s % 20, 1.0, s));
    if (s == 100) {
      for (EventSerial t = 0; t < 500; ++t) {
        b.RecordInsert(Insert(1, 0, static_cast<double>(t), 1000 + t));
      }
      for (EventSerial t = 0; t < 500; ++t) {
        ASSERT_EQ(Retract(&b, 1, 0, static_cast<double>(t)),
                  static_cast<int64_t>(1000 + t));
      }
    }
  }
  EXPECT_EQ(a.live_entries(), b.live_entries());
  EXPECT_EQ(Encode(a), Encode(b));
}

TEST(RetractionLedgerTest, CompactionPreservesResolutionOrder) {
  RetractionLedger ledger;
  // Five live duplicates of one key, interleaved with filler...
  for (EventSerial s = 0; s < 5; ++s) {
    ledger.RecordInsert(Insert(3, 1, 7.0, 2 * s));
    ledger.RecordInsert(Insert(4, 1, static_cast<double>(s), 2 * s + 1));
  }
  for (EventSerial s = 0; s < 100; ++s) {
    ledger.RecordInsert(Insert(4, 2, static_cast<double>(s), 10 + s));
  }
  // ...whose retraction leaves far more tombstones than live entries,
  // so the log compacts (repeatedly) before the duplicates resolve.
  for (EventSerial s = 0; s < 5; ++s) {
    ASSERT_EQ(Retract(&ledger, 4, 1, static_cast<double>(s)),
              static_cast<int64_t>(2 * s + 1));
  }
  for (EventSerial s = 0; s < 100; ++s) {
    ASSERT_EQ(Retract(&ledger, 4, 2, static_cast<double>(s)),
              static_cast<int64_t>(10 + s));
  }
  EXPECT_EQ(ledger.live_entries(), 5u);
  EXPECT_EQ(ledger.live_keys(), 1u);
  for (int64_t s = 4; s >= 0; --s) {
    EXPECT_EQ(Retract(&ledger, 3, 1, 7.0), 2 * s);
  }
  EXPECT_EQ(Retract(&ledger, 3, 1, 7.0), -1);
}

TEST(RetractionLedgerTest, MatchesStackPerKeyModel) {
  // Randomized differential check against the plain definition: one
  // stack of live serials per key. A small key space makes duplicates,
  // index collisions and compactions frequent.
  using Key = std::tuple<TypeId, uint32_t, double>;
  Rng rng(17);
  RetractionLedger ledger;
  std::map<Key, std::vector<EventSerial>> model;
  size_t model_live = 0;
  EventSerial next_serial = 0;
  for (int step = 0; step < 40000; ++step) {
    const Key key(static_cast<TypeId>(rng.UniformInt(0, 2)),
                  static_cast<uint32_t>(rng.UniformInt(0, 7)),
                  static_cast<double>(rng.UniformInt(0, 15)));
    // Drift between insert- and retract-heavy phases so the live set
    // both grows (index growth) and drains (compaction).
    const double insert_share = (step / 5000) % 2 == 0 ? 0.7 : 0.35;
    if (rng.UniformReal(0.0, 1.0) < insert_share) {
      ledger.RecordInsert(Insert(std::get<0>(key), std::get<1>(key),
                                 std::get<2>(key), next_serial));
      model[key].push_back(next_serial++);
      ++model_live;
    } else {
      int64_t expected = -1;
      auto it = model.find(key);
      if (it != model.end()) {
        expected = static_cast<int64_t>(it->second.back());
        it->second.pop_back();
        --model_live;
        if (it->second.empty()) model.erase(it);
      }
      ASSERT_EQ(Retract(&ledger, std::get<0>(key), std::get<1>(key),
                        std::get<2>(key)),
                expected)
          << "step " << step;
    }
    ASSERT_EQ(ledger.live_entries(), model_live);
    ASSERT_EQ(ledger.live_keys(), model.size());
    if (step % 4999 == 0) {
      const std::string bytes = Encode(ledger);
      SnapshotReader r(bytes);
      ledger.LoadFrom(&r);
      ASSERT_TRUE(r.ok()) << r.status().message();
      ASSERT_EQ(Encode(ledger), bytes);
    }
  }
}

TEST(RetractionLedgerTest, TruncationAtEveryByteLatchesDataLoss) {
  RetractionLedger ledger;
  for (EventSerial s = 0; s < 6; ++s) {
    ledger.RecordInsert(Insert(1, s % 2, 0.5, s));
  }
  const std::string bytes = Encode(ledger);
  for (size_t len = 0; len < bytes.size(); ++len) {
    RetractionLedger loaded;
    SnapshotReader r(bytes.data(), len);
    loaded.LoadFrom(&r);
    ASSERT_FALSE(r.ok()) << "len " << len;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "len " << len;
    // A refused load leaves an empty, usable ledger.
    EXPECT_EQ(loaded.live_entries(), 0u);
    EXPECT_EQ(Retract(&loaded, 1, 0, 0.5), -1);
    loaded.RecordInsert(Insert(1, 0, 0.5, 7));
    EXPECT_EQ(Retract(&loaded, 1, 0, 0.5), 7);
  }
}

TEST(RetractionLedgerTest, ImpossibleCountIsRefusedBeforeAllocating) {
  SnapshotWriter w;
  w.U64(uint64_t{1} << 60);
  w.U32(0);
  w.U32(0);
  w.U64(0);
  w.U64(0);
  RetractionLedger ledger;
  SnapshotReader r(w.bytes());
  ledger.LoadFrom(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("exceeds remaining bytes"),
            std::string::npos);
  EXPECT_EQ(ledger.live_entries(), 0u);
}

TEST(RetractionLedgerTest, NonIncreasingSerialsAreRefused) {
  for (EventSerial second : {EventSerial{5}, EventSerial{4}}) {
    SnapshotWriter w;
    w.U64(2);
    for (EventSerial serial : {EventSerial{5}, second}) {
      w.U32(0);
      w.U32(0);
      w.U64(static_cast<uint64_t>(serial));  // distinct ts bits
      w.U64(serial);
    }
    RetractionLedger ledger;
    SnapshotReader r(w.bytes());
    ledger.LoadFrom(&r);
    ASSERT_FALSE(r.ok()) << "second serial " << second;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(ledger.live_entries(), 0u);
  }
}

}  // namespace
}  // namespace cepjoin
