//===- tests/TimestampSetTest.cpp - series codec & set ops -----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/TimestampSet.h"

#include "DataflowOracle.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

using namespace twpp;

namespace {

TEST(TimestampSetTest, PaperExampleCompactsToSeries) {
  // Paper Section 2: {1 -> {1}, 2 -> {2,3,4,5,6}, 6 -> {7}} compacts to
  // {1 -> {-1}, 2 -> {2:-6}, 6 -> {-7}}.
  TimestampSet Block2 = TimestampSet::fromSorted({2, 3, 4, 5, 6});
  EXPECT_EQ(Block2.encodeSigned(), (std::vector<int64_t>{2, -6}));
  TimestampSet Block1 = TimestampSet::fromSorted({1});
  EXPECT_EQ(Block1.encodeSigned(), (std::vector<int64_t>{-1}));
  TimestampSet Block6 = TimestampSet::fromSorted({7});
  EXPECT_EQ(Block6.encodeSigned(), (std::vector<int64_t>{-7}));
}

TEST(TimestampSetTest, SteppedSeriesUsesThreeValues) {
  TimestampSet Set = TimestampSet::fromSorted({2, 4, 6, 8});
  EXPECT_EQ(Set.encodeSigned(), (std::vector<int64_t>{2, 8, -2}));
  EXPECT_EQ(Set.encodedValueCount(), 3u);
}

TEST(TimestampSetTest, TwoElementOddStridePrefersSingletons) {
  // {3, 10}: l:h:s would cost 3 ints; two singletons cost 2.
  TimestampSet Set = TimestampSet::fromSorted({3, 10});
  EXPECT_EQ(Set.encodeSigned(), (std::vector<int64_t>{-3, -10}));
}

TEST(TimestampSetTest, BasicAccessors) {
  TimestampSet Set = TimestampSet::fromSorted({1, 5, 9, 13, 20});
  EXPECT_EQ(Set.count(), 5u);
  EXPECT_EQ(Set.min(), 1u);
  EXPECT_EQ(Set.max(), 20u);
  EXPECT_TRUE(Set.contains(9));
  EXPECT_FALSE(Set.contains(10));
  EXPECT_EQ(Set.toVector(), (std::vector<Timestamp>{1, 5, 9, 13, 20}));
}

TEST(TimestampSetTest, ShiftMovesWholeRuns) {
  // The paper's traversal example: (2:20:2) shifted to (1:19:2)/(3:21:2).
  TimestampSet Set = TimestampSet::fromRun(2, 20, 2);
  TimestampSet Back = Set.shifted(-1);
  ASSERT_EQ(Back.runs().size(), 1u);
  EXPECT_EQ(Back.runs()[0], (SeriesRun{1, 19, 2}));
  TimestampSet Fwd = Set.shifted(+1);
  ASSERT_EQ(Fwd.runs().size(), 1u);
  EXPECT_EQ(Fwd.runs()[0], (SeriesRun{3, 21, 2}));
}

TEST(TimestampSetTest, ShiftDropsNonPositives) {
  TimestampSet Set = TimestampSet::fromSorted({1, 2, 3});
  TimestampSet Shifted = Set.shifted(-2);
  EXPECT_EQ(Shifted.toVector(), (std::vector<Timestamp>{1}));
  EXPECT_TRUE(Set.shifted(-5).empty());
}

TEST(TimestampSetTest, ShiftPartialRunWithStride) {
  TimestampSet Set = TimestampSet::fromRun(3, 11, 4); // {3, 7, 11}
  TimestampSet Shifted = Set.shifted(-4);             // {3, 7} after drop
  EXPECT_EQ(Shifted.toVector(), (std::vector<Timestamp>{3, 7}));
}

TEST(TimestampSetTest, SetOperations) {
  TimestampSet A = TimestampSet::fromSorted({1, 2, 3, 4, 5, 6});
  TimestampSet B = TimestampSet::fromSorted({2, 4, 6, 8});
  EXPECT_EQ(A.intersect(B).toVector(), (std::vector<Timestamp>{2, 4, 6}));
  EXPECT_EQ(A.unite(B).toVector(),
            (std::vector<Timestamp>{1, 2, 3, 4, 5, 6, 8}));
  EXPECT_TRUE(A.intersect(TimestampSet()).empty());
}

TEST(TimestampSetTest, DecodeReservesExactlyItsRuns) {
  // A singleton, a step-1 range and a stepped range: three entries, three
  // runs, and no spare capacity for the memory records to miss.
  TimestampSet Out;
  ASSERT_TRUE(TimestampSet::decodeSigned({-3, 5, -9, 10, 20, -5}, Out));
  EXPECT_EQ(Out.runs().size(), 3u);
  EXPECT_EQ(Out.runs().capacity(), Out.runs().size());
  TimestampSet Set = TimestampSet::fromSorted({1, 3, 5, 7, 8, 20, 21, 22});
  ASSERT_TRUE(TimestampSet::decodeSigned(Set.encodeSigned(), Out));
  EXPECT_EQ(Out, Set);
  EXPECT_EQ(Out.runs().capacity(), Out.runs().size());
}

TEST(TimestampSetTest, DecodeRejectsMalformedStreams) {
  TimestampSet Out;
  // Dangling positive value.
  EXPECT_FALSE(TimestampSet::decodeSigned({5}, Out));
  // Range with h <= l.
  EXPECT_FALSE(TimestampSet::decodeSigned({5, -5}, Out));
  // Step not dividing the span.
  EXPECT_FALSE(TimestampSet::decodeSigned({2, 7, -2}, Out));
  // Zero is not a valid timestamp.
  EXPECT_FALSE(TimestampSet::decodeSigned({0}, Out));
  // Three positives in a row.
  EXPECT_FALSE(TimestampSet::decodeSigned({2, 8, 2}, Out));
}

TEST(TimestampSetTest, DecodeRejectsValuesOutsideUint32) {
  TimestampSet Out;
  // Truncated to 32 bits, 4294967297 and step 4294967296 would make the
  // run 1:1 with step 0, on which count() divides by zero.
  EXPECT_FALSE(
      TimestampSet::decodeSigned({1, 4294967297, -4294967296}, Out));
  // INT64_MIN has no negation; it must be rejected in every position.
  EXPECT_FALSE(TimestampSet::decodeSigned({INT64_MIN}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({1, INT64_MIN}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({1, 5, INT64_MIN}, Out));
  // Timestamps past UINT32_MAX, as singletons, range ends or series ends.
  EXPECT_FALSE(TimestampSet::decodeSigned({-4294967296}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({1, -4294967296}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({4294967296, -4294967297}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({1, 4294967297, -2}, Out));
  // A step past UINT32_MAX, even one that divides the span.
  EXPECT_FALSE(TimestampSet::decodeSigned({1, 3, -4294967298}, Out));
  // UINT32_MAX itself is a valid timestamp and step bound.
  ASSERT_TRUE(TimestampSet::decodeSigned({-4294967295}, Out));
  EXPECT_TRUE(Out.contains(4294967295u));
  ASSERT_TRUE(TimestampSet::decodeSigned({1, 4294967295, -2147483647}, Out));
  EXPECT_EQ(Out.count(), 3u);
}

TEST(TimestampSetTest, EmptySetEncodesEmpty) {
  TimestampSet Set;
  EXPECT_TRUE(Set.encodeSigned().empty());
  TimestampSet Out;
  EXPECT_TRUE(TimestampSet::decodeSigned({}, Out));
  EXPECT_TRUE(Out.empty());
}

/// Property sweep: random strictly-increasing lists round trip through
/// the signed encoding, and set operations agree with std::set oracles.
class TimestampSetProperty : public ::testing::TestWithParam<uint64_t> {};

std::vector<Timestamp> randomSortedList(Rng &R, size_t MaxLength) {
  std::vector<Timestamp> Out;
  Timestamp T = 0;
  size_t Length = R.nextBelow(MaxLength + 1);
  for (size_t I = 0; I < Length; ++I) {
    // Mix of dense runs (stride 1 / constant stride) and jumps.
    uint64_t Roll = R.nextBelow(10);
    Timestamp Step = Roll < 5 ? 1 : (Roll < 8 ? 3 : 1 + R.nextBelow(50));
    T += Step;
    Out.push_back(T);
  }
  return Out;
}

TEST_P(TimestampSetProperty, EncodeDecodeRoundTrip) {
  Rng R(GetParam());
  for (int Iter = 0; Iter < 50; ++Iter) {
    std::vector<Timestamp> List = randomSortedList(R, 200);
    TimestampSet Set = TimestampSet::fromSorted(List);
    EXPECT_EQ(Set.toVector(), List);
    EXPECT_EQ(Set.count(), List.size());
    TimestampSet Back;
    ASSERT_TRUE(TimestampSet::decodeSigned(Set.encodeSigned(), Back));
    EXPECT_EQ(Back.toVector(), List);
  }
}

TEST_P(TimestampSetProperty, SetOpsMatchOracle) {
  Rng R(GetParam() ^ 0xABCD);
  for (int Iter = 0; Iter < 30; ++Iter) {
    std::vector<Timestamp> ListA = randomSortedList(R, 120);
    std::vector<Timestamp> ListB = randomSortedList(R, 120);
    TimestampSet A = TimestampSet::fromSorted(ListA);
    TimestampSet B = TimestampSet::fromSorted(ListB);

    std::set<Timestamp> OracleA(ListA.begin(), ListA.end());
    std::set<Timestamp> OracleB(ListB.begin(), ListB.end());

    std::vector<Timestamp> Meet, Join;
    std::set_intersection(OracleA.begin(), OracleA.end(), OracleB.begin(),
                          OracleB.end(), std::back_inserter(Meet));
    std::set_union(OracleA.begin(), OracleA.end(), OracleB.begin(),
                   OracleB.end(), std::back_inserter(Join));

    EXPECT_EQ(A.intersect(B).toVector(), Meet);
    EXPECT_EQ(A.unite(B).toVector(), Join);

    // Shift oracle.
    int64_t Delta = static_cast<int64_t>(R.nextBelow(7)) - 3;
    std::vector<Timestamp> ShiftOracle;
    for (Timestamp T : ListA) {
      int64_t V = static_cast<int64_t>(T) + Delta;
      if (V > 0)
        ShiftOracle.push_back(static_cast<Timestamp>(V));
    }
    EXPECT_EQ(A.shifted(Delta).toVector(), ShiftOracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimestampSetProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

/// Set.shifted(Delta), or Set itself where the shift would carry an
/// element past UINT32_MAX.
TimestampSet shiftedBelowMax(const TimestampSet &Set, int64_t Delta) {
  if (Set.empty() || static_cast<int64_t>(Set.max()) + Delta > UINT32_MAX)
    return Set;
  return Set.shifted(Delta);
}

/// A random operand for the run-wise algebra: one to four arithmetic
/// segments laid from \p Base (two sets drawn from one base overlap), with
/// strides from 1 up to 2^31, clipped at UINT32_MAX, and sometimes
/// shifted so that the runs are not canonical.
TimestampSet randomAlgebraOperand(Rng &R, uint64_t Base) {
  std::vector<Timestamp> Elements;
  uint64_t T = Base + R.nextBelow(8);
  for (uint64_t Segments = 1 + R.nextBelow(4); Segments-- > 0;) {
    uint64_t Roll = R.nextBelow(20);
    uint64_t Stride = Roll < 8    ? 1
                      : Roll < 15 ? 2 + R.nextBelow(19)
                      : Roll < 18 ? 21 + R.nextBelow(5000)
                                  : (1ull << 16) + R.nextBelow(1ull << 31);
    for (uint64_t Count = 1 + R.nextBelow(40); Count-- > 0 &&
                                               T <= UINT32_MAX;
         T += Stride)
      Elements.push_back(static_cast<Timestamp>(T));
    T += R.nextBelow(30);
  }
  TimestampSet Set = TimestampSet::fromSorted(Elements);
  if (R.nextBelow(3) == 0)
    Set = shiftedBelowMax(Set, static_cast<int64_t>(R.nextBelow(41)) - 20);
  return Set;
}

std::string describe(const TimestampSet &Set) {
  std::string Out;
  for (const SeriesRun &Run : Set.runs())
    Out += " " + std::to_string(Run.Lo) + ":" + std::to_string(Run.Hi) +
           ":" + std::to_string(Run.Step);
  return Out.empty() ? " (empty)" : Out;
}

TEST(TimestampSetAlgebra, RunWiseMatchesElementWiseOracle) {
  Rng R(20010620);
  for (int Pair = 0; Pair < 120000; ++Pair) {
    uint64_t Base = R.nextBelow(4) == 0
                        ? UINT32_MAX - R.nextBelow(1ull << 20)
                        : 1 + R.nextBelow(64);
    TimestampSet A = randomAlgebraOperand(R, Base);
    TimestampSet B;
    switch (R.nextBelow(8)) {
    case 0:
      B = A; // the intersect fast path
      break;
    case 1:
      B = shiftedBelowMax(A, static_cast<int64_t>(R.nextBelow(9)) - 4);
      break;
    case 2: {
      // Two lone runs with huge strides: lcm(StepA, StepB) > 2^32.
      auto HugeRun = [&] {
        uint64_t Step = (1ull << 16) + R.nextBelow(1ull << 31);
        uint64_t Lo = 1 + R.nextBelow(1ull << 20);
        uint64_t Count = std::min<uint64_t>(
            1 + R.nextBelow(4), (UINT32_MAX - Lo) / Step + 1);
        return TimestampSet::fromRun(static_cast<Timestamp>(Lo),
                                     static_cast<Timestamp>(
                                         Lo + (Count - 1) * Step),
                                     static_cast<uint32_t>(Step));
      };
      A = HugeRun();
      B = HugeRun();
      break;
    }
    default:
      B = randomAlgebraOperand(R, Base);
      break;
    }
    TimestampSet Meet = A.intersect(B), Join = A.unite(B);
    ASSERT_TRUE(Meet == oracle::intersect(A, B))
        << "A" << describe(A) << "\nB" << describe(B) << "\ngot"
        << describe(Meet) << "\nwant" << describe(oracle::intersect(A, B));
    ASSERT_TRUE(Join == oracle::unite(A, B))
        << "A" << describe(A) << "\nB" << describe(B) << "\ngot"
        << describe(Join) << "\nwant" << describe(oracle::unite(A, B));
  }
}

TEST(TimestampSetAlgebra, CoprimeHugeStridesMeetOnce) {
  // lcm(65537, 65539) > 2^32: the series share exactly one element.
  const uint32_t P = 65537, Q = 65539;
  TimestampSet A = TimestampSet::fromRun(1, 1 + 65000u * P, P);
  TimestampSet B = TimestampSet::fromRun(1, 1 + 65000u * Q, Q);
  EXPECT_EQ(A.intersect(B), TimestampSet::fromSorted({1}));
  // CRT with a non-zero offset: x = 3 (mod 4), x = 2 (mod 6) has no
  // solution; x = 3 (mod 4), x = 5 (mod 6) is x = 11 (mod 12).
  TimestampSet Fours = TimestampSet::fromRun(3, 99, 4);
  EXPECT_TRUE(Fours.intersect(TimestampSet::fromRun(2, 98, 6)).empty());
  EXPECT_EQ(Fours.intersect(TimestampSet::fromRun(5, 95, 6)),
            TimestampSet::fromRun(11, 95, 12));
}

TEST(TimestampSetAlgebra, UnitePassesDisjointRunsThrough) {
  TimestampSet Low = TimestampSet::fromRun(1, 99, 2);
  TimestampSet High = TimestampSet::fromRun(200, 300, 5);
  TimestampSet Join = Low.unite(High);
  ASSERT_EQ(Join.runs().size(), 2u);
  EXPECT_EQ(Join.runs()[0], (SeriesRun{1, 99, 2}));
  EXPECT_EQ(Join.runs()[1], (SeriesRun{200, 300, 5}));
  // Adjacent runs of one stride fuse, as fromSorted would pack them.
  EXPECT_EQ(TimestampSet::fromRun(1, 9, 2).unite(
                TimestampSet::fromRun(11, 19, 2)),
            TimestampSet::fromRun(1, 19, 2));
  // Odd and even interleave into one step-1 run.
  EXPECT_EQ(TimestampSet::fromRun(1, 99, 2).unite(
                TimestampSet::fromRun(2, 100, 2)),
            TimestampSet::fromRun(1, 100, 1));
}

TEST(TimestampSetEdge, SingleElementSeries) {
  TimestampSet Set = TimestampSet::fromSorted({42});
  ASSERT_EQ(Set.runs().size(), 1u);
  EXPECT_EQ(Set.runs()[0], (SeriesRun{42, 42, 1}));
  EXPECT_EQ(Set.encodeSigned(), (std::vector<int64_t>{-42}));
  EXPECT_EQ(Set.count(), 1u);
  EXPECT_EQ(Set.min(), 42u);
  EXPECT_EQ(Set.max(), 42u);

  // A degenerate fromRun must normalize the step so equal sets compare
  // equal regardless of how they were built.
  EXPECT_EQ(TimestampSet::fromRun(7, 7, 5), TimestampSet::fromSorted({7}));
}

TEST(TimestampSetEdge, StrideOverflowNearInt32Max) {
  // Strides close to INT32_MAX: the greedy packer must fold
  // {1, 2^30, 2^31-1} (stride 0x3FFFFFFF twice) into one run, and the
  // signed codec must carry it without overflowing.
  const Timestamp Mid = 0x40000000u, Top = 0x7FFFFFFFu;
  TimestampSet Set = TimestampSet::fromSorted({1, Mid, Top});
  ASSERT_EQ(Set.runs().size(), 1u);
  EXPECT_EQ(Set.runs()[0], (SeriesRun{1, Top, 0x3FFFFFFFu}));
  std::vector<int64_t> Encoded = Set.encodeSigned();
  EXPECT_EQ(Encoded, (std::vector<int64_t>{1, Top, -0x3FFFFFFF}));
  TimestampSet Back;
  ASSERT_TRUE(TimestampSet::decodeSigned(Encoded, Back));
  EXPECT_EQ(Back, Set);
  EXPECT_EQ(Back.toVector(), (std::vector<Timestamp>{1, Mid, Top}));
}

TEST(TimestampSetEdge, TwoElementHugeStridePrefersSingletons) {
  // The 2-element rule must hold at extreme strides too: {1, 2^31-1}
  // costs 2 ints as singletons, 3 as a run.
  TimestampSet Set = TimestampSet::fromSorted({1, 0x7FFFFFFFu});
  ASSERT_EQ(Set.runs().size(), 2u);
  EXPECT_EQ(Set.encodeSigned(),
            (std::vector<int64_t>{-1, -0x7FFFFFFF}));
  TimestampSet Back;
  ASSERT_TRUE(TimestampSet::decodeSigned(Set.encodeSigned(), Back));
  EXPECT_EQ(Back, Set);
}

TEST(TimestampSetEdge, TimestampsAboveInt32Max) {
  // Timestamps are uint32; values past INT32_MAX must survive the signed
  // int64 codec (the sign bit delimits entries, it cannot eat value bits).
  const Timestamp Hi = 0xFFFFFFFFu;
  TimestampSet Singleton = TimestampSet::fromSorted({Hi});
  EXPECT_EQ(Singleton.encodeSigned(),
            (std::vector<int64_t>{-static_cast<int64_t>(Hi)}));
  TimestampSet Back;
  ASSERT_TRUE(TimestampSet::decodeSigned(Singleton.encodeSigned(), Back));
  EXPECT_EQ(Back.toVector(), (std::vector<Timestamp>{Hi}));

  // A stepped run ending at the uint32 ceiling.
  TimestampSet Run = TimestampSet::fromSorted({Hi - 4, Hi - 2, Hi});
  ASSERT_EQ(Run.runs().size(), 1u);
  EXPECT_EQ(Run.runs()[0], (SeriesRun{Hi - 4, Hi, 2}));
  ASSERT_TRUE(TimestampSet::decodeSigned(Run.encodeSigned(), Back));
  EXPECT_EQ(Back.toVector(), (std::vector<Timestamp>{Hi - 4, Hi - 2, Hi}));
}

TEST(TimestampSetEdge, SignEncodedEntryBoundaries) {
  // Mixed entry kinds back to back: singleton, step-1 range, stepped run.
  // Every entry ends on its only negative value, so the stream is
  // unambiguous without separators.
  std::vector<Timestamp> List = {5, 10, 11, 12, 13, 20, 23, 26};
  TimestampSet Set = TimestampSet::fromSorted(List);
  std::vector<int64_t> Encoded = Set.encodeSigned();
  EXPECT_EQ(Encoded, (std::vector<int64_t>{-5, 10, -13, 20, 26, -3}));
  EXPECT_EQ(Set.encodedValueCount(), Encoded.size());
  int Negatives = 0;
  for (int64_t Value : Encoded)
    Negatives += Value < 0;
  EXPECT_EQ(static_cast<size_t>(Negatives), Set.runs().size());
  TimestampSet Back;
  ASSERT_TRUE(TimestampSet::decodeSigned(Encoded, Back));
  EXPECT_EQ(Back.toVector(), List);
}

TEST(TimestampSetEdge, DecodeBoundaryValidation) {
  TimestampSet Out;
  // Step-1 range collapsing to a point must be rejected (a singleton
  // encodes it); so must an inverted range.
  EXPECT_FALSE(TimestampSet::decodeSigned({1, -1}, Out));
  EXPECT_FALSE(TimestampSet::decodeSigned({5, -3}, Out));
  // Truncated stepped entry: positive pair with no step.
  EXPECT_FALSE(TimestampSet::decodeSigned({2, 8}, Out));
  // Valid adjacent entries that share boundary values must decode.
  ASSERT_TRUE(TimestampSet::decodeSigned({-1, 2, -3, 4, 8, -2}, Out));
  EXPECT_EQ(Out.toVector(), (std::vector<Timestamp>{1, 2, 3, 4, 6, 8}));
  // Huge-stride entry at the INT32_MAX edge decodes exactly.
  ASSERT_TRUE(
      TimestampSet::decodeSigned({1, 0x7FFFFFFF, -0x3FFFFFFF}, Out));
  EXPECT_EQ(Out.count(), 3u);
  EXPECT_TRUE(Out.contains(0x40000000u));
}

TEST(TimestampSetEdge, EncodedValueCountMatchesEncoding) {
  Rng R(314159);
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<Timestamp> List = randomSortedList(R, 150);
    TimestampSet Set = TimestampSet::fromSorted(List);
    EXPECT_EQ(Set.encodedValueCount(), Set.encodeSigned().size());
  }
}

} // namespace
