//===- tests/StreamingTest.cpp - online compaction -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Streaming.h"

#include "TestTraces.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "support/FileIO.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

using namespace twpp;

namespace {

/// Allocation-failure seam of this test binary: while positive, it counts
/// allocations down, and the one that brings it to zero throws
/// std::bad_alloc.
long FailAllocationIn = 0;

} // namespace

void *operator new(std::size_t Size) {
  if (FailAllocationIn > 0 && --FailAllocationIn == 0)
    throw std::bad_alloc();
  if (void *Memory = std::malloc(Size ? Size : 1))
    return Memory;
  throw std::bad_alloc();
}

// Out of line, so that no inlined delete pairs a new-expression with free.
[[gnu::noinline]] void operator delete(void *Memory) noexcept {
  std::free(Memory);
}
[[gnu::noinline]] void operator delete(void *Memory, std::size_t) noexcept {
  std::free(Memory);
}

namespace {

void feed(StreamingCompactor &Sink, const RawTrace &Trace) {
  for (const TraceEvent &Event : Trace.Events) {
    switch (Event.EventKind) {
    case TraceEvent::Kind::Enter:
      Sink.onEnter(Event.Id);
      break;
    case TraceEvent::Kind::Block:
      Sink.onBlock(Event.Id);
      break;
    case TraceEvent::Kind::Exit:
      Sink.onExit();
      break;
    }
  }
}

TEST(StreamingTest, MatchesOfflinePartition) {
  RawTrace Trace = fixtures::figure1Trace();
  StreamingCompactor Sink(Trace.FunctionCount);
  feed(Sink, Trace);
  ASSERT_TRUE(Sink.balanced());
  EXPECT_EQ(Sink.takePartitioned(), partitionWpp(Trace));
}

TEST(StreamingTest, TakeCompactedMatchesFullPipeline) {
  RawTrace Trace = fixtures::randomTrace(777);
  StreamingCompactor Sink(Trace.FunctionCount);
  feed(Sink, Trace);
  EXPECT_EQ(Sink.takeCompacted(), compactWpp(Trace));
}

TEST(StreamingTest, FrameTrackingAndReuse) {
  StreamingCompactor Sink(2);
  EXPECT_TRUE(Sink.balanced());
  Sink.onEnter(0);
  Sink.onBlock(1);
  Sink.onEnter(1);
  EXPECT_EQ(Sink.openFrames(), 2u);
  Sink.onExit();
  EXPECT_EQ(Sink.openFrames(), 1u);
  Sink.onExit();
  ASSERT_TRUE(Sink.balanced());
  PartitionedWpp First = Sink.takePartitioned();
  EXPECT_EQ(First.Dcg.Nodes.size(), 2u);

  // The compactor is reusable after take.
  Sink.onEnter(1);
  Sink.onBlock(5);
  Sink.onExit();
  PartitionedWpp Second = Sink.takePartitioned();
  EXPECT_EQ(Second.Dcg.Nodes.size(), 1u);
  EXPECT_EQ(Second.Functions[1].UniqueTraces[0], (PathTrace{5}));
}

TEST(StreamingTest, InterpreterCanStreamDirectly) {
  // The instrumented-execution deployment mode: the interpreter writes
  // into the online compactor; no raw trace ever exists.
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn f(n) {"
                             "  t = 0; i = 0;"
                             "  while (i < n) { t = t + i; i = i + 1; }"
                             "  return t;"
                             "}"
                             "fn main() {"
                             "  k = 0;"
                             "  while (k < 10) {"
                             "    r = call f(k % 3); print r; k = k + 1;"
                             "  }"
                             "}",
                             M, Error))
      << Error;

  StreamingCompactor Streaming(
      static_cast<uint32_t>(M.Functions.size()));
  Interpreter Interp(M, Streaming);
  ExecutionResult Result = Interp.run({});
  ASSERT_TRUE(Result.Completed) << Result.Error;
  ASSERT_TRUE(Streaming.balanced());
  TwppWpp Online = Streaming.takeCompacted();

  ExecutionResult Result2;
  RawTrace Trace = traceExecution(M, {}, Result2);
  EXPECT_EQ(Online, compactWpp(Trace));
  EXPECT_EQ(reconstructRawTrace(Online), Trace);
}

/// Property: streaming == offline on random traces.
class StreamingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingEquivalence, RandomTraces) {
  RawTrace Trace = fixtures::randomTrace(GetParam(), 7, 5000);
  StreamingCompactor Sink(Trace.FunctionCount);
  feed(Sink, Trace);
  EXPECT_EQ(Sink.takePartitioned(), partitionWpp(Trace));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalence,
                         ::testing::Values(71, 72, 73, 74, 75, 76));

/// The per-event reference for onEvents: the guard loop the ingest reader
/// ran before onEvents existed, one onEnter/onBlock/onExit call per
/// applied event.
void feedGuarded(StreamingCompactor &Sink, const TraceEvent *First,
                 const TraceEvent *Last, uint64_t &Applied,
                 uint64_t &Dropped) {
  for (; First != Last; ++First) {
    switch (First->EventKind) {
    case TraceEvent::Kind::Enter:
      if (First->Id >= Sink.functionCount()) {
        ++Dropped;
        continue;
      }
      Sink.onEnter(First->Id);
      break;
    case TraceEvent::Kind::Block:
      if (Sink.openFrames() == 0) {
        ++Dropped;
        continue;
      }
      Sink.onBlock(First->Id);
      break;
    case TraceEvent::Kind::Exit:
      if (Sink.openFrames() == 0) {
        ++Dropped;
        continue;
      }
      Sink.onExit();
      break;
    }
    ++Applied;
  }
}

/// Feeds \p Events to onEvents in batches of random sizes, empty ones
/// included.
void feedBatches(StreamingCompactor &Sink,
                 const std::vector<TraceEvent> &Events, Rng &R,
                 uint64_t &Applied, uint64_t &Dropped) {
  const TraceEvent *At = Events.data(), *End = At + Events.size();
  while (At != End) {
    size_t Left = static_cast<size_t>(End - At);
    size_t Take = R.nextBelow(std::min<size_t>(Left, 80) + 1);
    Sink.onEvents(At, At + Take, Applied, Dropped);
    At += Take;
  }
}

/// Well-formed random calls, one after another, until the trace holds at
/// least \p MinEvents events.
RawTrace longTrace(uint64_t Seed, uint32_t FunctionCount, size_t MinEvents) {
  RawTrace Trace;
  Trace.FunctionCount = FunctionCount;
  for (uint64_t Root = 0; Trace.Events.size() < MinEvents; ++Root) {
    RawTrace Call = fixtures::randomTrace(Seed * 1000 + Root, FunctionCount);
    Trace.Events.insert(Trace.Events.end(), Call.Events.begin(),
                        Call.Events.end());
  }
  return Trace;
}

/// \p Trace's events with random ones mixed in: Enters of function ids
/// past the universe, and Blocks and Exits wherever they fall, so some
/// land with no call open and others close calls early.
std::vector<TraceEvent> withHostileEvents(const RawTrace &Trace,
                                          uint64_t Seed) {
  Rng R(Seed);
  auto Hostile = [&] {
    switch (R.nextBelow(3)) {
    case 0:
      return TraceEvent::enter(
          Trace.FunctionCount + static_cast<FunctionId>(R.nextBelow(3)));
    case 1:
      return TraceEvent::block(static_cast<BlockId>(R.nextBelow(9)));
    default:
      return TraceEvent::exit();
    }
  };
  std::vector<TraceEvent> Events;
  for (int I = 0; I != 5; ++I)
    Events.push_back(Hostile());
  for (const TraceEvent &E : Trace.Events) {
    if (R.nextBelow(30) == 0)
      Events.push_back(Hostile());
    Events.push_back(E);
  }
  for (int I = 0; I != 5; ++I)
    Events.push_back(Hostile());
  return Events;
}

TEST(StreamingTest, OnEventsBatchesMatchPerEventCalls) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RawTrace Trace = longTrace(100 + Seed, 6, 5000);
    StreamingCompactor PerEvent(Trace.FunctionCount);
    StreamingCompactor Batched(Trace.FunctionCount);
    uint64_t RefApplied = 0, RefDropped = 0, Applied = 0, Dropped = 0;
    feedGuarded(PerEvent, Trace.Events.data(),
                Trace.Events.data() + Trace.Events.size(), RefApplied,
                RefDropped);
    Rng R(Seed);
    feedBatches(Batched, Trace.Events, R, Applied, Dropped);
    EXPECT_EQ(Applied, Trace.Events.size());
    EXPECT_EQ(Dropped, 0u);
    EXPECT_EQ(Batched.eventsConsumed(), PerEvent.eventsConsumed());
    EXPECT_EQ(Batched.snapshotState(), PerEvent.snapshotState());
    EXPECT_EQ(Batched.takePartitioned(), PerEvent.takePartitioned());
  }
}

TEST(StreamingTest, OnEventsDropsAndCountsAsPerEventGuards) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RawTrace Trace = longTrace(200 + Seed, 4, 3000);
    std::vector<TraceEvent> Events = withHostileEvents(Trace, Seed);
    StreamingCompactor PerEvent(Trace.FunctionCount);
    StreamingCompactor Batched(Trace.FunctionCount);
    uint64_t RefApplied = 0, RefDropped = 0, Applied = 0, Dropped = 0;
    feedGuarded(PerEvent, Events.data(), Events.data() + Events.size(),
                RefApplied, RefDropped);
    Rng R(Seed);
    feedBatches(Batched, Events, R, Applied, Dropped);
    EXPECT_GT(RefDropped, 10u);
    EXPECT_EQ(Applied, RefApplied);
    EXPECT_EQ(Dropped, RefDropped);
    EXPECT_EQ(Applied + Dropped, Events.size());
    EXPECT_EQ(Batched.snapshotState(), PerEvent.snapshotState());
  }
}

TEST(StreamingTest, OnEventsDegradesAndCheckpointsPerEvent) {
  // A budget small enough to degrade frames and a checkpoint every 7
  // events: a batch must trip both at exactly the events single calls
  // trip them at, so the degraded frames, the state and every journal
  // record agree.
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    RawTrace Trace = longTrace(300 + Seed, 5, 4000);
    auto ConfigFor = [&](const char *Name) {
      StreamingConfig Config;
      Config.MemoryBudgetBytes = 1024;
      Config.CheckpointInterval = 7;
      Config.JournalPath = ::testing::TempDir() + "/on_events_" + Name +
                           std::to_string(Seed) + ".twppj";
      return Config;
    };
    StreamingConfig PerEventConfig = ConfigFor("per_event");
    StreamingConfig BatchedConfig = ConfigFor("batched");
    uint64_t RefApplied = 0, RefDropped = 0, Applied = 0, Dropped = 0;
    {
      StreamingCompactor PerEvent(Trace.FunctionCount, PerEventConfig);
      StreamingCompactor Batched(Trace.FunctionCount, BatchedConfig);
      feedGuarded(PerEvent, Trace.Events.data(),
                  Trace.Events.data() + Trace.Events.size(), RefApplied,
                  RefDropped);
      Rng R(Seed);
      feedBatches(Batched, Trace.Events, R, Applied, Dropped);
      EXPECT_GT(PerEvent.degradedFrames(), 0u);
      EXPECT_EQ(Batched.degradedFrames(), PerEvent.degradedFrames());
      EXPECT_EQ(Batched.trackedStateBytes(), PerEvent.trackedStateBytes());
      EXPECT_EQ(Batched.checkpointsWritten(), PerEvent.checkpointsWritten());
      EXPECT_EQ(Batched.snapshotState(), PerEvent.snapshotState());
      EXPECT_EQ(Batched.takePartitioned(), PerEvent.takePartitioned());
    }
    std::vector<uint8_t> PerEventJournal, BatchedJournal;
    ASSERT_TRUE(readFileBytes(PerEventConfig.JournalPath, PerEventJournal));
    ASSERT_TRUE(readFileBytes(BatchedConfig.JournalPath, BatchedJournal));
    EXPECT_FALSE(PerEventJournal.empty());
    EXPECT_EQ(BatchedJournal, PerEventJournal);
  }
}

TEST(StreamingTest, OnEventsCountsStayExactWhenAllocationFails) {
  RawTrace Trace = longTrace(41, 4, 3000);
  std::vector<TraceEvent> Events = withHostileEvents(Trace, 41);
  const TraceEvent *First = Events.data(), *Last = First + Events.size();
  uint64_t Failures = 0;
  for (long Nth = 1; Nth <= 400; Nth += 3) {
    StreamingCompactor Sink(Trace.FunctionCount);
    uint64_t Applied = 0, Dropped = 0;
    bool Threw = false;
    FailAllocationIn = Nth;
    try {
      Sink.onEvents(First, Last, Applied, Dropped);
    } catch (const std::bad_alloc &) {
      Threw = true;
    }
    FailAllocationIn = 0;
    Failures += Threw;
    // Applied counts what the compactor took in, and the two counts cover
    // exactly the events before the one that threw.
    EXPECT_EQ(Applied, Sink.eventsConsumed()) << "allocation " << Nth;
    uint64_t RefApplied = 0, RefDropped = 0;
    StreamingCompactor Reference(Trace.FunctionCount);
    feedGuarded(Reference, First, First + Applied + Dropped, RefApplied,
                RefDropped);
    EXPECT_EQ(Applied, RefApplied) << "allocation " << Nth;
    EXPECT_EQ(Dropped, RefDropped) << "allocation " << Nth;
    if (!Threw) {
      EXPECT_EQ(Applied + Dropped, Events.size());
    }
  }
  EXPECT_GT(Failures, 20u);
}

} // namespace
