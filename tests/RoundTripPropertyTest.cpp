//===- tests/RoundTripPropertyTest.cpp - pipeline round-trip properties ----===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generator-driven property tests over the whole compaction pipeline:
/// raw trace -> partition -> DBB -> TWPP -> archive -> decode -> expand
/// must reproduce the original block sequences exactly. 20 seeds x 10
/// generated traces = 200 randomized cases, cycling through four trace
/// shapes (unstructured, empty-function-heavy, single-block calls,
/// recursion-heavy call trees) plus the degenerate empty trace.
///
//===----------------------------------------------------------------------===//

#include "wpp/Archive.h"
#include "wpp/Streaming.h"

#include "ReadPaths.h"
#include "TestTraces.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace twpp;
using fixtures::ReadPath;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// A trace where most functions never run: FunctionCount is much larger
/// than the set of ids actually called, so per-function tables (and
/// archive index rows) exist for functions with zero calls.
RawTrace emptyFunctionHeavyTrace(uint64_t Seed) {
  Rng R(Seed);
  RawTrace Trace;
  Trace.FunctionCount = 16;
  // Only ids {0, 3, 9} ever run.
  const FunctionId Used[3] = {0, 3, 9};
  auto &E = Trace.Events;
  uint64_t Calls = 1 + R.nextBelow(20);
  for (uint64_t C = 0; C != Calls; ++C) {
    E.push_back(TraceEvent::enter(Used[R.nextBelow(3)]));
    uint64_t Blocks = R.nextBelow(6);
    for (uint64_t B = 0; B != Blocks; ++B)
      E.push_back(TraceEvent::block(
          static_cast<BlockId>(1 + R.nextBelow(5))));
    E.push_back(TraceEvent::exit());
  }
  return Trace;
}

/// Every call executes exactly one block (the shortest non-empty path
/// trace), which stresses the DBB stage's short-trace bypass and the
/// TWPP single-timestamp sets.
RawTrace singleBlockTrace(uint64_t Seed) {
  Rng R(Seed);
  RawTrace Trace;
  Trace.FunctionCount = 4;
  auto &E = Trace.Events;
  uint64_t Calls = 1 + R.nextBelow(40);
  for (uint64_t C = 0; C != Calls; ++C) {
    E.push_back(TraceEvent::enter(
        static_cast<FunctionId>(R.nextBelow(Trace.FunctionCount))));
    E.push_back(TraceEvent::block(
        static_cast<BlockId>(1 + R.nextBelow(3))));
    E.push_back(TraceEvent::exit());
  }
  return Trace;
}

/// Deep recursive call trees: every frame may recurse into a random
/// function before and after its own blocks, up to a depth cap, so the
/// DCG is a deep tree with anchors in the middle of parent traces.
RawTrace recursionHeavyTrace(uint64_t Seed) {
  Rng R(Seed);
  RawTrace Trace;
  Trace.FunctionCount = 3;
  auto &E = Trace.Events;
  // Recursive descent without actual recursion: an explicit worklist of
  // (depth) frames emitting enter/blocks/maybe-child/blocks/exit.
  struct Frame {
    uint32_t Depth;
    int Phase; // 0 = just entered, 1 = after child, 2 = exiting
  };
  std::vector<Frame> Stack;
  auto EnterRandom = [&](uint32_t Depth) {
    E.push_back(TraceEvent::enter(
        static_cast<FunctionId>(R.nextBelow(Trace.FunctionCount))));
    Stack.push_back({Depth, 0});
  };
  EnterRandom(0);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    uint64_t Blocks = R.nextBelow(4);
    for (uint64_t B = 0; B != Blocks; ++B)
      E.push_back(TraceEvent::block(
          static_cast<BlockId>(1 + R.nextBelow(4))));
    if (Top.Phase < 2 && Top.Depth < 30 && R.nextBool(0.7)) {
      ++Top.Phase;
      EnterRandom(Top.Depth + 1);
      continue;
    }
    E.push_back(TraceEvent::exit());
    Stack.pop_back();
  }
  return Trace;
}

RawTrace generateCase(uint64_t Seed, int Shape) {
  switch (Shape) {
  case 0:
    return fixtures::randomTrace(Seed, 6, 1500);
  case 1:
    return emptyFunctionHeavyTrace(Seed);
  case 2:
    return singleBlockTrace(Seed);
  default:
    return recursionHeavyTrace(Seed);
  }
}

/// Expands every stage inverse and the archive codec against the
/// original trace and its partitioned form.
void checkRoundTrip(const RawTrace &Trace, const std::string &PathTag) {
  ASSERT_TRUE(Trace.isWellFormed());

  // Stage inverses, one at a time.
  PartitionedWpp Partitioned = partitionWpp(Trace);
  DbbWpp Dbb = applyDbbCompaction(Partitioned);
  TwppWpp Twpp = convertToTwpp(Dbb);
  DbbWpp DbbBack;
  EXPECT_TRUE(twppToDbb(Twpp, DbbBack));
  EXPECT_EQ(DbbBack, Dbb);
  EXPECT_EQ(dbbToPartitioned(Dbb), Partitioned);
  EXPECT_EQ(reconstructRawTrace(Twpp), Trace);

  // Per-function expansion answers the paper's query: the unique block
  // sequences and use counts of every function, including never-called
  // ones (empty tables).
  ASSERT_EQ(Twpp.Functions.size(), Partitioned.Functions.size());
  for (size_t F = 0; F < Twpp.Functions.size(); ++F) {
    FunctionPathTraces Expanded = expandFunctionTraces(Twpp.Functions[F]);
    EXPECT_EQ(Expanded.Traces, Partitioned.Functions[F].UniqueTraces);
    EXPECT_EQ(Expanded.UseCounts, Partitioned.Functions[F].UseCounts);
    EXPECT_EQ(Expanded.CallCount, Partitioned.Functions[F].CallCount);
  }

  // Through the on-disk archive and back — decoded on both the buffered
  // and the zero-copy read path, which must be structurally identical.
  std::string Path = tempPath("round_trip_" + PathTag + ".twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Twpp));
  TwppWpp PerMode[2];
  for (ReadPath Mode : {ReadPath::Buffered, ReadPath::Mmap}) {
    SCOPED_TRACE(fixtures::readPathName(Mode));
    ArchiveReader Reader;
    ASSERT_TRUE(fixtures::openOn(Reader, Path, Mode));
    ASSERT_EQ(Reader.mapped(), Mode == ReadPath::Mmap);
    ASSERT_EQ(Reader.functionCount(), Twpp.Functions.size());
    TwppWpp &Back = PerMode[Mode == ReadPath::Mmap ? 1 : 0];
    ASSERT_TRUE(Reader.readAll(Back));
    EXPECT_EQ(Back, Twpp);
    EXPECT_EQ(reconstructRawTrace(Back), Trace);
  }
  EXPECT_EQ(PerMode[0], PerMode[1]);
  std::remove(Path.c_str());
}

class RoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripProperty, RandomizedTraces) {
  uint64_t Seed = GetParam();
  Rng R(Seed * 7919 + 1);
  for (int Case = 0; Case < 10; ++Case) {
    RawTrace Trace = generateCase(R.next(), Case % 4);
    SCOPED_TRACE("seed " + std::to_string(Seed) + " case " +
                 std::to_string(Case));
    checkRoundTrip(Trace, std::to_string(Seed) + "_" +
                              std::to_string(Case));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Range<uint64_t>(1, 21));

TEST(RoundTripEdgeCases, EmptyTrace) {
  RawTrace Trace;
  Trace.FunctionCount = 4;
  checkRoundTrip(Trace, "empty");
}

TEST(RoundTripEdgeCases, SingleCallSingleBlock) {
  RawTrace Trace;
  Trace.FunctionCount = 1;
  Trace.Events = {TraceEvent::enter(0), TraceEvent::block(1),
                  TraceEvent::exit()};
  checkRoundTrip(Trace, "single");
}

TEST(RoundTripEdgeCases, CallWithNoBlocks) {
  // A function that enters and exits without executing a block has an
  // empty path trace; it must survive every stage and the archive.
  RawTrace Trace;
  Trace.FunctionCount = 2;
  Trace.Events = {TraceEvent::enter(0), TraceEvent::block(1),
                  TraceEvent::enter(1), TraceEvent::exit(),
                  TraceEvent::block(2), TraceEvent::exit()};
  checkRoundTrip(Trace, "noblocks");
}

TEST(RoundTripEdgeCases, StreamingMatchesBatch) {
  // The online sink and the offline pipeline must agree on every shape
  // the generators produce.
  Rng R(424242);
  for (int Shape = 0; Shape < 4; ++Shape) {
    RawTrace Trace = generateCase(R.next(), Shape);
    StreamingCompactor Sink(Trace.FunctionCount);
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
    ASSERT_TRUE(Sink.balanced());
    EXPECT_EQ(Sink.takeCompacted(), compactWpp(Trace));
  }
}

} // namespace
