//===- tests/RaceDetectTest.cpp - Race detector differential tests --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// Hand-built known-race / known-race-free regressions for the compacted
// engine, plus two seeded differential suites whose reports must be
// byte-equal (race list, addresses, access pairs, pair counts) to the
// reference engines': short random interleavings against the
// decompress-and-check oracle, and run-structured workload traces —
// long arithmetic access series and checkpoint strides, broken mid-way
// by single-event perturbations — against that oracle at small sizes and
// the segment-pair engine at bench scale.
//
//===----------------------------------------------------------------------===//

#include "RaceSegmentsOracle.h"

#include "races/RaceDetect.h"
#include "support/Random.h"
#include "trace/ThreadEvents.h"
#include "workloads/Concurrent.h"
#include "wpp/Concurrent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

using namespace twpp;
using namespace twpp::races;

namespace {

ThreadTrace simpleThread(ThreadId Id, uint32_t Blocks) {
  ThreadTrace T;
  T.Id = Id;
  T.Trace.FunctionCount = 1;
  T.Trace.Events.push_back(TraceEvent::enter(0));
  for (uint32_t B = 1; B <= Blocks; ++B)
    T.Trace.Events.push_back(TraceEvent::block(B));
  T.Trace.Events.push_back(TraceEvent::exit());
  return T;
}

/// ConcurrencyInfo straight from a raw concurrent trace (no compaction —
/// the detector only needs the metadata).
ConcurrencyInfo concInfo(const ConcurrentTrace &Trace) {
  ConcurrencyInfo Conc;
  Conc.FunctionCount = Trace.FunctionCount;
  for (const ThreadTrace &T : Trace.Threads)
    Conc.Threads.push_back({T.Id, T.Trace.blockEventCount()});
  Conc.Edges = deriveHbEdges(Trace);
  Conc.Accesses = buildAccessTables(Trace);
  return Conc;
}

void expectEnginesAgree(const ConcurrencyInfo &Conc) {
  RaceReport Fast = detectRacesCompacted(Conc);
  RaceReport Slow = detectRacesOracle(Conc);
  EXPECT_TRUE(sameVerdict(Fast, Slow))
      << "compacted:\n"
      << renderRaceLines(Fast) << "oracle:\n"
      << renderRaceLines(Slow);
  EXPECT_EQ(renderRaceLines(Fast), renderRaceLines(Slow));
  EXPECT_EQ(Fast.Stats.PairsCovered, Slow.Stats.PairsCovered);
  EXPECT_EQ(Fast.Stats.RacyPairs, Slow.Stats.RacyPairs);
}

TEST(RaceDetectTest, UnsyncedWritesRace) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, 4));
  Trace.Threads.push_back(simpleThread(1, 4));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::write(1, 0x10, 3));
  ASSERT_TRUE(Trace.isWellFormed());

  ConcurrencyInfo Conc = concInfo(Trace);
  RaceReport Report = detectRacesCompacted(Conc);
  ASSERT_EQ(Report.Races.size(), 1u);
  const RacePair &R = Report.Races[0];
  EXPECT_EQ(R.Addr, 0x10u);
  EXPECT_EQ(R.ThreadA, 0u);
  EXPECT_EQ(R.ThreadB, 1u);
  EXPECT_EQ(R.TimeA, 2u);
  EXPECT_EQ(R.TimeB, 3u);
  EXPECT_EQ(R.KindA, 0u);
  EXPECT_EQ(R.KindB, 0u);
  EXPECT_EQ(R.PairCount, 1u);
  EXPECT_EQ(Report.Stats.RacyPairs, 1u);
  expectEnginesAgree(Conc);
}

TEST(RaceDetectTest, ReadReadNeverRaces) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, 4));
  Trace.Threads.push_back(simpleThread(1, 4));
  Trace.Accesses.push_back(AccessEvent::read(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::read(1, 0x10, 3));
  ASSERT_TRUE(Trace.isWellFormed());

  ConcurrencyInfo Conc = concInfo(Trace);
  RaceReport Report = detectRacesCompacted(Conc);
  EXPECT_FALSE(Report.racy());
  // Read-read pairs still count as covered candidates.
  EXPECT_EQ(Report.Stats.PairsCovered, 1u);
  expectEnginesAgree(Conc);
}

TEST(RaceDetectTest, LockOrderingSuppressesRace) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, 4));
  Trace.Threads.push_back(simpleThread(1, 4));
  // T0 writes inside [acq@0, rel@3]; T1 acquires afterwards at its time
  // 0 and writes at time 1 — ordered by the release->acquire edge.
  Trace.Syncs.push_back(SyncEvent::acquire(0, 1, 0));
  Trace.Syncs.push_back(SyncEvent::release(0, 1, 3));
  Trace.Syncs.push_back(SyncEvent::acquire(1, 1, 0));
  Trace.Syncs.push_back(SyncEvent::release(1, 1, 2));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::write(1, 0x10, 1));
  ASSERT_TRUE(Trace.isWellFormed());

  ConcurrencyInfo Conc = concInfo(Trace);
  EXPECT_FALSE(detectRacesCompacted(Conc).racy());
  expectEnginesAgree(Conc);

  // The same trace with an unguarded second address still races there.
  Trace.Accesses.push_back(AccessEvent::write(0, 0x20, 4));
  Trace.Accesses.push_back(AccessEvent::write(1, 0x20, 4));
  ConcurrencyInfo Conc2 = concInfo(Trace);
  RaceReport Report = detectRacesCompacted(Conc2);
  ASSERT_EQ(Report.Races.size(), 1u);
  EXPECT_EQ(Report.Races[0].Addr, 0x20u);
  expectEnginesAgree(Conc2);
}

TEST(RaceDetectTest, ForkJoinOrdering) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, 8));
  Trace.Threads.push_back(simpleThread(1, 4));
  // Parent writes at 1 (pre-fork, ordered), forks at 2, writes at 3
  // (concurrent with the child), joins at 6, writes at 7 (post-join,
  // ordered). Child writes the same address at 2.
  Trace.Syncs.push_back(SyncEvent::fork(0, 1, 2));
  Trace.Syncs.push_back(SyncEvent::join(0, 1, 6));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 1));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 3));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 7));
  Trace.Accesses.push_back(AccessEvent::write(1, 0x10, 2));
  ASSERT_TRUE(Trace.isWellFormed());

  ConcurrencyInfo Conc = concInfo(Trace);
  RaceReport Report = detectRacesCompacted(Conc);
  ASSERT_EQ(Report.Races.size(), 1u);
  const RacePair &R = Report.Races[0];
  // Only the mid-window write races; it is the reported first pair.
  EXPECT_EQ(R.TimeA, 3u);
  EXPECT_EQ(R.TimeB, 2u);
  EXPECT_EQ(R.PairCount, 1u);
  expectEnginesAgree(Conc);
}

TEST(RaceDetectTest, FirstPairTieBreakPrefersWrites) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, 4));
  Trace.Threads.push_back(simpleThread(1, 4));
  // Same earliest time on thread 0 with both a read and a write racing:
  // the write (kind 0) must win the tie-break.
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::read(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::write(1, 0x10, 1));
  std::sort(Trace.Accesses.begin(), Trace.Accesses.end(),
            [](const AccessEvent &A, const AccessEvent &B) {
              return std::make_tuple(A.Thread, A.Time, A.Addr,
                                     static_cast<uint8_t>(A.EventKind)) <
                     std::make_tuple(B.Thread, B.Time, B.Addr,
                                     static_cast<uint8_t>(B.EventKind));
            });
  ASSERT_TRUE(Trace.isWellFormed());

  ConcurrencyInfo Conc = concInfo(Trace);
  RaceReport Report = detectRacesCompacted(Conc);
  ASSERT_EQ(Report.Races.size(), 1u);
  EXPECT_EQ(Report.Races[0].KindA, 0u);
  EXPECT_EQ(Report.Races[0].PairCount, 2u); // write-write + read-write
  expectEnginesAgree(Conc);
}

//===----------------------------------------------------------------------===//
// Differential fuzz.
//===----------------------------------------------------------------------===//

/// Builds a random well-formed concurrent trace: random per-thread
/// lengths, a random lock-respecting sync interleaving, and random
/// accesses over a small address pool (small so collisions are common).
ConcurrentTrace fuzzTrace(uint64_t Seed) {
  Rng Rand(Seed);
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  const uint32_t Threads = 2 + static_cast<uint32_t>(Rand.nextBelow(3));
  const uint32_t Locks = 1 + static_cast<uint32_t>(Rand.nextBelow(3));
  std::vector<uint32_t> Length(Threads), Cursor(Threads, 0);
  for (uint32_t T = 0; T != Threads; ++T) {
    Length[T] = 4 + static_cast<uint32_t>(Rand.nextBelow(28));
    Trace.Threads.push_back(simpleThread(T, Length[T]));
  }

  std::map<LockId, std::optional<ThreadId>> Holder;
  std::vector<std::vector<LockId>> Held(Threads);
  const uint32_t Steps = 20 + static_cast<uint32_t>(Rand.nextBelow(60));
  for (uint32_t S = 0; S != Steps; ++S) {
    ThreadId T = static_cast<ThreadId>(Rand.nextBelow(Threads));
    // Advance the thread's clock a random amount (possibly zero).
    Cursor[T] = std::min<uint32_t>(
        Length[T],
        Cursor[T] + static_cast<uint32_t>(Rand.nextBelow(4)));
    switch (Rand.nextBelow(3)) {
    case 0: { // try to acquire a free lock
      LockId L = static_cast<LockId>(Rand.nextBelow(Locks));
      if (!Holder[L]) {
        Holder[L] = T;
        Held[T].push_back(L);
        Trace.Syncs.push_back(SyncEvent::acquire(T, L, Cursor[T]));
      }
      break;
    }
    case 1: { // release one held lock
      if (!Held[T].empty()) {
        LockId L = Held[T].back();
        Held[T].pop_back();
        Holder[L].reset();
        Trace.Syncs.push_back(SyncEvent::release(T, L, Cursor[T]));
      }
      break;
    }
    default: { // emit an access at the current position
      if (Cursor[T] >= 1) {
        Address A = 1 + Rand.nextBelow(6);
        bool Write = Rand.nextBool(0.5);
        Trace.Accesses.push_back(
            {Write ? AccessEvent::Kind::Write : AccessEvent::Kind::Read, T,
             A, Cursor[T]});
      }
      break;
    }
    }
  }
  // Drain still-held locks so the next fuzz round starts clean.
  for (uint32_t T = 0; T != Threads; ++T)
    while (!Held[T].empty()) {
      LockId L = Held[T].back();
      Held[T].pop_back();
      Holder[L].reset();
      Trace.Syncs.push_back(SyncEvent::release(T, L, Length[T]));
    }
  std::sort(Trace.Accesses.begin(), Trace.Accesses.end(),
            [](const AccessEvent &A, const AccessEvent &B) {
              return std::make_tuple(A.Thread, A.Time, A.Addr,
                                     static_cast<uint8_t>(A.EventKind)) <
                     std::make_tuple(B.Thread, B.Time, B.Addr,
                                     static_cast<uint8_t>(B.EventKind));
            });
  return Trace;
}

TEST(RaceDetectTest, DifferentialFuzz) {
  uint64_t RacyTraces = 0;
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    ConcurrentTrace Trace = fuzzTrace(Seed);
    ASSERT_TRUE(Trace.isWellFormed()) << "seed " << Seed;
    ConcurrencyInfo Conc = concInfo(Trace);
    RaceReport Fast = detectRacesCompacted(Conc);
    RaceReport Slow = detectRacesOracle(Conc);
    ASSERT_TRUE(sameVerdict(Fast, Slow))
        << "seed " << Seed << "\ncompacted:\n"
        << renderRaceLines(Fast) << "oracle:\n"
        << renderRaceLines(Slow);
    ASSERT_EQ(renderRaceLines(Fast), renderRaceLines(Slow))
        << "seed " << Seed;
    ASSERT_EQ(Fast.Stats.PairsCovered, Slow.Stats.PairsCovered)
        << "seed " << Seed;
    ASSERT_EQ(Fast.Stats.RacyPairs, Slow.Stats.RacyPairs) << "seed " << Seed;
    RacyTraces += Fast.racy();
  }
  // The fuzz distribution must actually exercise both verdicts.
  EXPECT_GT(RacyTraces, 50u);
  EXPECT_LT(RacyTraces, 300u);
}

//===----------------------------------------------------------------------===//
// Run-structured differential property.
//===----------------------------------------------------------------------===//

/// Re-sorts and deduplicates the access stream into canonical order.
void canonicalizeAccesses(ConcurrentTrace &Trace) {
  auto Key = [](const AccessEvent &E) {
    return std::make_tuple(E.Thread, E.Time, E.Addr,
                           static_cast<uint8_t>(E.EventKind));
  };
  std::sort(Trace.Accesses.begin(), Trace.Accesses.end(),
            [&Key](const AccessEvent &A, const AccessEvent &B) {
              return Key(A) < Key(B);
            });
  Trace.Accesses.erase(std::unique(Trace.Accesses.begin(),
                                   Trace.Accesses.end()),
                       Trace.Accesses.end());
}

/// Inserts one block event into thread \p T after its \p After-th block:
/// every later access and sync of the thread moves one tick, so each run
/// and clock stretch spanning the point breaks there.
void insertBlock(ConcurrentTrace &Trace, ThreadId T, uint32_t After) {
  std::vector<TraceEvent> &Events = Trace.Threads[T].Trace.Events;
  uint32_t Seen = 0;
  for (size_t I = 0; I != Events.size(); ++I) {
    if (Events[I].EventKind != TraceEvent::Kind::Block || ++Seen != After)
      continue;
    Events.insert(Events.begin() + I + 1, TraceEvent::block(1));
    break;
  }
  for (AccessEvent &A : Trace.Accesses)
    if (A.Thread == T && A.Time > After)
      ++A.Time;
  for (SyncEvent &S : Trace.Syncs)
    if (S.Thread == T && S.Time > After)
      ++S.Time;
}

/// A workload trace with random shape, stage count, blocks per item,
/// ring size and item count, then up to three single-event perturbations
/// (an inserted block, a dropped access, a stray access), sometimes a
/// thinned access series (every m-th access of one thread on one
/// address, so strides differ between threads) and sometimes a dense
/// series (every k-th block over a window that starts and ends inside
/// items, so one run covers many accesses per clock segment).
ConcurrentTrace runStructuredTrace(uint64_t Seed, uint32_t Items) {
  Rng Rand(Seed * 0x2545F4914F6CDD1Dull + 7);
  ConcurrentProfile P;
  P.Kind = static_cast<ConcurrentProfile::Shape>(Rand.nextBelow(3));
  P.Seed = Seed;
  P.Threads = 2 + static_cast<uint32_t>(Rand.nextBelow(4));
  P.Items = Items;
  P.Locks = 1 + static_cast<uint32_t>(Rand.nextBelow(4));
  P.Addresses = 1 + static_cast<uint32_t>(Rand.nextBelow(6));
  P.BlocksPerItem = 3 + static_cast<uint32_t>(Rand.nextBelow(6));
  P.InjectRaces = Rand.nextBool(0.5);
  ConcurrentTrace Trace = generateConcurrentTrace(P);

  if (Rand.nextBool(0.4) && !Trace.Accesses.empty()) {
    const AccessEvent Pick =
        Trace.Accesses[Rand.nextBelow(Trace.Accesses.size())];
    const uint64_t Stride = 2 + Rand.nextBelow(4);
    uint64_t Nth = 0;
    std::erase_if(Trace.Accesses, [&](const AccessEvent &A) {
      return A.Thread == Pick.Thread && A.Addr == Pick.Addr &&
             Nth++ % Stride != 0;
    });
  }
  if (Rand.nextBool(0.4) && !Trace.Accesses.empty()) {
    const AccessEvent Pick =
        Trace.Accesses[Rand.nextBelow(Trace.Accesses.size())];
    ThreadId T = static_cast<ThreadId>(Rand.nextBelow(P.Threads));
    uint32_t Blocks =
        static_cast<uint32_t>(Trace.Threads[T].Trace.blockEventCount());
    uint32_t Step = 1 + static_cast<uint32_t>(Rand.nextBelow(3));
    uint32_t From = 1 + static_cast<uint32_t>(Rand.nextBelow(Blocks));
    uint32_t To =
        From + static_cast<uint32_t>(Rand.nextBelow(Blocks - From + 1));
    bool Write = Rand.nextBool(0.5);
    for (uint32_t Time = From; Time <= To; Time += Step)
      Trace.Accesses.push_back(Write ? AccessEvent::write(T, Pick.Addr, Time)
                                     : AccessEvent::read(T, Pick.Addr, Time));
  }
  const uint64_t Perturbations = Rand.nextBelow(4);
  for (uint64_t I = 0; I != Perturbations; ++I) {
    ThreadId T = static_cast<ThreadId>(Rand.nextBelow(P.Threads));
    uint32_t Blocks =
        static_cast<uint32_t>(Trace.Threads[T].Trace.blockEventCount());
    switch (Rand.nextBelow(3)) {
    case 0:
      insertBlock(Trace, T, 1 + static_cast<uint32_t>(Rand.nextBelow(Blocks)));
      break;
    case 1:
      if (!Trace.Accesses.empty())
        Trace.Accesses.erase(Trace.Accesses.begin() +
                             Rand.nextBelow(Trace.Accesses.size()));
      break;
    default: {
      // A stray access to an address some thread already touches.
      Address A = Trace.Accesses.empty()
                      ? 0x5000
                      : Trace.Accesses[Rand.nextBelow(Trace.Accesses.size())]
                            .Addr;
      uint32_t Time = 1 + static_cast<uint32_t>(Rand.nextBelow(Blocks));
      Trace.Accesses.push_back(Rand.nextBool(0.5)
                                   ? AccessEvent::write(T, A, Time)
                                   : AccessEvent::read(T, A, Time));
      break;
    }
    }
  }
  canonicalizeAccesses(Trace);
  return Trace;
}

/// Everything but the SegmentPairs work counter must match.
void expectSameReport(const RaceReport &Fast, const RaceReport &Ref,
                      const std::string &What) {
  ASSERT_EQ(renderRaceLines(Fast), renderRaceLines(Ref)) << What;
  ASSERT_TRUE(sameVerdict(Fast, Ref)) << What;
  ASSERT_EQ(Fast.Stats.RacyPairs, Ref.Stats.RacyPairs) << What;
  ASSERT_EQ(Fast.Stats.PairsCovered, Ref.Stats.PairsCovered) << What;
}

TEST(RaceDetectTest, RunStructuredPropertyMatchesBothOracles) {
  uint64_t RacyTraces = 0;
  for (uint64_t Seed = 1; Seed <= 240; ++Seed) {
    ConcurrentTrace Trace =
        runStructuredTrace(Seed, 24 + static_cast<uint32_t>(Seed % 5) * 16);
    ASSERT_TRUE(Trace.isWellFormed()) << "seed " << Seed;
    ConcurrencyInfo Conc = concInfo(Trace);
    RaceReport Fast = detectRacesCompacted(Conc);
    std::string What = "seed " + std::to_string(Seed);
    expectSameReport(Fast, detectRacesOracle(Conc), What + " vs oracle");
    RaceReport Segs = oracle::detectRacesBySegments(Conc);
    expectSameReport(Fast, Segs, What + " vs segments");
    ASSERT_EQ(Fast.Stats.Segments, Segs.Stats.Segments) << What;
    RacyTraces += Fast.racy();
  }
  // Both verdicts must be exercised.
  EXPECT_GT(RacyTraces, 40u);
  EXPECT_LT(RacyTraces, 200u);
}

TEST(RaceDetectTest, RunStructuredPropertyAtBenchScale) {
  // Longer traces, where stretches span hundreds of segments, against the
  // segment-pair engine only (the pair-by-pair oracle is too slow here).
  for (uint64_t Seed = 1001; Seed <= 1040; ++Seed) {
    ConcurrentTrace Trace = runStructuredTrace(Seed, 1500);
    ASSERT_TRUE(Trace.isWellFormed()) << "seed " << Seed;
    ConcurrencyInfo Conc = concInfo(Trace);
    RaceReport Fast = detectRacesCompacted(Conc);
    RaceReport Segs = oracle::detectRacesBySegments(Conc);
    expectSameReport(Fast, Segs, "seed " + std::to_string(Seed));
    ASSERT_EQ(Fast.Stats.Segments, Segs.Stats.Segments) << "seed " << Seed;
  }
}

TEST(RaceDetectTest, BenchProfilesAt8xMatchSegmentEngine) {
  // The six bench profiles at the analyze workload's 8x Items, plus the
  // pipelined pair with one block inserted mid-run on every thread.
  for (ConcurrentProfile P : concurrentProfiles()) {
    P.Items *= 8;
    ConcurrentTrace Trace = generateConcurrentTrace(P);
    std::vector<ConcurrentTrace> Variants = {Trace};
    if (P.Kind == ConcurrentProfile::Shape::Pipelined) {
      ConcurrentTrace Broken = Trace;
      for (ThreadId T = 0; T != P.Threads; ++T)
        insertBlock(Broken, T, 1000 + 7919 * T);
      Variants.push_back(std::move(Broken));
    }
    for (const ConcurrentTrace &V : Variants) {
      ASSERT_TRUE(V.isWellFormed()) << P.Name;
      ConcurrencyInfo Conc = concInfo(V);
      RaceReport Fast = detectRacesCompacted(Conc);
      RaceReport Segs = oracle::detectRacesBySegments(Conc);
      expectSameReport(Fast, Segs, P.Name);
      ASSERT_EQ(Fast.Stats.Segments, Segs.Stats.Segments) << P.Name;
      EXPECT_EQ(Fast.racy(), P.InjectRaces) << P.Name;
    }
  }
}

} // namespace
