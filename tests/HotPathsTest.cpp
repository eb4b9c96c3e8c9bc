//===- tests/HotPathsTest.cpp - hot path queries ---------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/HotPaths.h"

#include "TestTraces.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

TEST(HotPathsTest, RanksByUseCount) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  std::vector<HotPath> Paths =
      hotPathsOf(expandFunctionTraces(Compacted.Functions[1]));
  ASSERT_EQ(Paths.size(), 2u);
  // Path2 (through blocks 7.8.9) was used 3 times, path1 twice.
  EXPECT_EQ(Paths[0].UseCount, 3u);
  EXPECT_EQ(Paths[1].UseCount, 2u);
  EXPECT_EQ(Paths[0].Blocks[2], 7u);
  EXPECT_EQ(Paths[1].Blocks[2], 3u);
}

TEST(HotPathsTest, LimitTruncates) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  FunctionPathTraces Expanded = expandFunctionTraces(Compacted.Functions[1]);
  EXPECT_EQ(hotPathsOf(Expanded, 1).size(), 1u);
  EXPECT_EQ(hotPathsOf(Expanded, 10).size(), 2u);
}

TEST(SubpathTest, CountsDynamicOccurrences) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  const TwppFunctionTable &F = Compacted.Functions[1];

  // 2.7.8 occurs 3 times per path2 trace, which ran 3 times.
  EXPECT_EQ(countSubpathOccurrences(F, {2, 7, 8}), 9u);
  // 2.3.4 occurs 3 times per path1 trace, which ran twice.
  EXPECT_EQ(countSubpathOccurrences(F, {2, 3, 4}), 6u);
  // The loop header alone: 3 occurrences in every one of the 5 calls.
  EXPECT_EQ(countSubpathOccurrences(F, {2}), 15u);
  // Absent subpath.
  EXPECT_EQ(countSubpathOccurrences(F, {9, 9}), 0u);
  // Empty needle.
  EXPECT_EQ(countSubpathOccurrences(F, {}), 0u);
  // Whole-trace needle.
  EXPECT_EQ(countSubpathOccurrences(
                F, {1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10}),
            2u);
}

TEST(SubpathTest, MainPathQueryOnlyTouchesMain) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  // Main's loop body 2.3.4 appears 5 times in its single call.
  EXPECT_EQ(countSubpathOccurrences(Compacted.Functions[0], {2, 3, 4}), 5u);
}

} // namespace
