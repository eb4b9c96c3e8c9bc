//===- tests/ThreadEventsTest.cpp - Concurrent event model tests ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "races/HappensBefore.h"
#include "trace/ThreadEvents.h"
#include "wpp/Concurrent.h"
#include "wpp/TimestampSet.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

/// A thread trace of Enter(0), \p Blocks block events, Exit.
ThreadTrace simpleThread(ThreadId Id, uint32_t Blocks,
                         uint32_t FunctionCount = 1) {
  ThreadTrace T;
  T.Id = Id;
  T.Trace.FunctionCount = FunctionCount;
  T.Trace.Events.push_back(TraceEvent::enter(0));
  for (uint32_t B = 1; B <= Blocks; ++B)
    T.Trace.Events.push_back(TraceEvent::block(B));
  T.Trace.Events.push_back(TraceEvent::exit());
  return T;
}

ConcurrentTrace twoThreads(uint32_t BlocksEach = 4) {
  ConcurrentTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Threads.push_back(simpleThread(0, BlocksEach));
  Trace.Threads.push_back(simpleThread(1, BlocksEach));
  return Trace;
}

TEST(ThreadEventsTest, WellFormedBasic) {
  ConcurrentTrace Trace = twoThreads();
  EXPECT_TRUE(Trace.isWellFormed());
  EXPECT_EQ(Trace.blockEventCount(), 8u);

  Trace.Syncs.push_back(SyncEvent::acquire(0, 7, 1));
  Trace.Syncs.push_back(SyncEvent::release(0, 7, 3));
  Trace.Syncs.push_back(SyncEvent::acquire(1, 7, 0));
  Trace.Syncs.push_back(SyncEvent::release(1, 7, 4));
  Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 2));
  Trace.Accesses.push_back(AccessEvent::read(1, 0x10, 1));
  EXPECT_TRUE(Trace.isWellFormed());
}

TEST(ThreadEventsTest, WellFormedRejectsBadShapes) {
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Threads[1].Id = 2; // not dense
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Syncs.push_back(SyncEvent::acquire(0, 1, 5)); // beyond the clock
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Syncs.push_back(SyncEvent::acquire(0, 1, 3));
    Trace.Syncs.push_back(SyncEvent::acquire(0, 1, 3)); // re-acquire held
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Syncs.push_back(SyncEvent::acquire(0, 1, 1));
    Trace.Syncs.push_back(SyncEvent::release(1, 1, 1)); // non-holder
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Syncs.push_back(SyncEvent::fork(0, 1, 0));
    Trace.Syncs.push_back(SyncEvent::fork(0, 1, 1)); // forked twice
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Accesses.push_back(AccessEvent::write(1, 0x10, 2));
    Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 2)); // unsorted
    EXPECT_FALSE(Trace.isWellFormed());
  }
  {
    ConcurrentTrace Trace = twoThreads();
    Trace.Accesses.push_back(AccessEvent::write(0, 0x10, 0)); // time 0
    EXPECT_FALSE(Trace.isWellFormed());
  }
}

TEST(ThreadEventsTest, DeriveLockEdges) {
  ConcurrentTrace Trace = twoThreads();
  Trace.Syncs.push_back(SyncEvent::acquire(0, 9, 1));
  Trace.Syncs.push_back(SyncEvent::release(0, 9, 2));
  // Same-thread re-acquire: no edge (program order covers it).
  Trace.Syncs.push_back(SyncEvent::acquire(0, 9, 3));
  Trace.Syncs.push_back(SyncEvent::release(0, 9, 3));
  // Cross-thread handoff: one Lock edge from the latest release.
  Trace.Syncs.push_back(SyncEvent::acquire(1, 9, 2));
  Trace.Syncs.push_back(SyncEvent::release(1, 9, 4));
  ASSERT_TRUE(Trace.isWellFormed());

  std::vector<HbEdge> Edges = deriveHbEdges(Trace);
  ASSERT_EQ(Edges.size(), 1u);
  EXPECT_EQ(Edges[0],
            (HbEdge{HbEdge::Kind::Lock, 0, 3, 1, 2}));
}

TEST(ThreadEventsTest, DeriveForkJoinEdges) {
  ConcurrentTrace Trace = twoThreads(4);
  Trace.Syncs.push_back(SyncEvent::fork(0, 1, 2));
  Trace.Syncs.push_back(SyncEvent::join(0, 1, 3));
  ASSERT_TRUE(Trace.isWellFormed());

  std::vector<HbEdge> Edges = deriveHbEdges(Trace);
  ASSERT_EQ(Edges.size(), 2u);
  EXPECT_EQ(Edges[0], (HbEdge{HbEdge::Kind::Fork, 0, 2, 1, 0}));
  // Join source is the child's final clock (4 blocks).
  EXPECT_EQ(Edges[1], (HbEdge{HbEdge::Kind::Join, 1, 4, 0, 3}));
}

TEST(ThreadEventsTest, FlatTimelineRowsJoinEdgeSources) {
  ConcurrencyInfo Conc;
  Conc.FunctionCount = 1;
  Conc.Threads = {{0, 20}, {1, 20}, {2, 20}};
  Conc.Accesses.resize(3);
  Conc.Edges.push_back({HbEdge::Kind::Lock, 0, 5, 2, 3});
  Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 7, 2, 3}); // same target
  Conc.Edges.push_back({HbEdge::Kind::Lock, 2, 4, 0, 9});
  // A self-edge whose target row is appended while its source row is
  // read: the join must see the source as it was.
  Conc.Edges.push_back({HbEdge::Kind::Lock, 0, 9, 0, 12});

  races::HappensBefore Hb = races::buildHappensBefore(Conc);
  EXPECT_TRUE(Hb.OutOfOrderEdges.empty());
  for (const races::ThreadTimeline &T : Hb.Threads) {
    EXPECT_EQ(T.Width, 3u);
    EXPECT_EQ(T.Clocks.size(), T.Times.size() * 3);
    EXPECT_EQ(T.Times[0], 0u);
  }
  // Thread 2: both edges fold into one checkpoint, componentwise max.
  const races::ThreadTimeline &T2 = Hb.Threads[2];
  ASSERT_EQ(T2.Times, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(std::vector<uint32_t>(T2.Clocks.begin() + 3, T2.Clocks.end()),
            (std::vector<uint32_t>{5, 7, 0}));
  // Thread 0 at 9 learns thread 2 up to 4 and, transitively, thread 1 up
  // to 7; its self-edge at 12 adds only its own time 9.
  const races::ThreadTimeline &T0 = Hb.Threads[0];
  ASSERT_EQ(T0.Times, (std::vector<uint32_t>{0, 9, 12}));
  EXPECT_EQ(std::vector<uint32_t>(T0.Clocks.begin() + 3, T0.Clocks.end()),
            (std::vector<uint32_t>{5, 7, 4, 9, 7, 4}));
}

TEST(ThreadEventsTest, HappensBeforeTimelines) {
  ConcurrencyInfo Conc;
  Conc.FunctionCount = 1;
  Conc.Threads = {{0, 10}, {1, 10}};
  Conc.Accesses.resize(2);
  // T0 releases at 4 -> T1 acquires at 2; T1 releases at 6 -> T0 at 8.
  Conc.Edges.push_back({HbEdge::Kind::Lock, 0, 4, 1, 2});
  Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 6, 0, 8});

  races::HappensBefore Hb = races::buildHappensBefore(Conc);
  EXPECT_TRUE(Hb.OutOfOrderEdges.empty());
  ASSERT_EQ(Hb.Threads.size(), 2u);

  // T1: bottom at 0, then a checkpoint at 2 knowing T0 up to 4.
  const races::ThreadTimeline &T1 = Hb.Threads[1];
  ASSERT_EQ(T1.size(), 2u);
  EXPECT_EQ(T1.Times[1], 2u);
  EXPECT_EQ(T1.component(1, 0), 4u);

  // The clock governs events strictly after the checkpoint time.
  EXPECT_EQ(T1.component(T1.checkpointForEvent(2), 0), 0u);
  EXPECT_EQ(T1.component(T1.checkpointForEvent(3), 0), 4u);

  // T0's checkpoint at 8 knows T1 up to 6, and transitively its own
  // past through the cycle-free chain (component 0 stays its own time).
  const races::ThreadTimeline &T0 = Hb.Threads[0];
  ASSERT_EQ(T0.size(), 2u);
  EXPECT_EQ(T0.Times[1], 8u);
  EXPECT_EQ(T0.component(1, 1), 6u);
  EXPECT_EQ(T0.component(T0.checkpointAfter(8), 1), 6u);
  EXPECT_EQ(T0.component(T0.checkpointAfter(7), 1), 0u);
}

TEST(ThreadEventsTest, OutOfOrderEdgesFlagged) {
  ConcurrencyInfo Conc;
  Conc.FunctionCount = 1;
  Conc.Threads = {{0, 10}, {1, 10}};
  Conc.Accesses.resize(2);
  Conc.Edges.push_back({HbEdge::Kind::Lock, 0, 4, 1, 6});
  Conc.Edges.push_back({HbEdge::Kind::Lock, 0, 8, 1, 3}); // target regressed

  races::HappensBefore Hb = races::buildHappensBefore(Conc);
  ASSERT_EQ(Hb.OutOfOrderEdges.size(), 1u);
  EXPECT_EQ(Hb.OutOfOrderEdges[0], 1u);
}

TEST(ThreadEventsTest, TimestampSetRangeHelpers) {
  // Packs to the run {3, 5, 7, 9} (step 2) plus the singleton {20}.
  TimestampSet Set = TimestampSet::fromSorted({3, 5, 7, 9, 20});
  EXPECT_EQ(Set.firstAtLeast(1), 3u);
  EXPECT_EQ(Set.firstAtLeast(4), 5u);
  EXPECT_EQ(Set.firstAtLeast(9), 9u);
  EXPECT_EQ(Set.firstAtLeast(10), 20u);
  EXPECT_EQ(Set.firstAtLeast(21), 0u);
}

} // namespace
