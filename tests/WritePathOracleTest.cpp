//===- tests/WritePathOracleTest.cpp - Dense index vs sort oracles --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// compactWithDbbs, buildDynamicCfg and twppFromBlockSequence number each
// trace through hash tables; the oracles in WritePathOracle.h number it by
// sorting. Every output must be identical, on random traces and on the
// id ranges and shapes a hash table can get wrong: ids at both ends of
// the 32-bit range, ids that agree in their low bits, tiny traces, one
// block repeated, and one long loop.
//
//===----------------------------------------------------------------------===//

#include "WritePathOracle.h"

#include "support/Random.h"
#include "wpp/DenseIndex.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace twpp;

namespace {

void expectSameCfg(const DynamicCfg &Got, const DynamicCfg &Want) {
  EXPECT_EQ(Got.Blocks, Want.Blocks);
  EXPECT_EQ(Got.Successors, Want.Successors);
  EXPECT_EQ(Got.Predecessors, Want.Predecessors);
  EXPECT_EQ(Got.IsEntry, Want.IsEntry);
  EXPECT_EQ(Got.IsExit, Want.IsExit);
}

/// Checks every kernel on \p Trace against its oracle, once with a fresh
/// scratch and once with \p Shared, which the caller reuses across traces.
void expectMatchesOracles(const PathTrace &Trace, DenseIndex &Shared) {
  SCOPED_TRACE("trace of " + std::to_string(Trace.size()) + " blocks");
  CompactedTrace Want = oracle::compactWithDbbs(Trace);
  EXPECT_EQ(compactWithDbbs(Trace), Want);
  EXPECT_EQ(compactWithDbbs(Trace, Shared), Want);
  expectSameCfg(buildDynamicCfg(Trace), oracle::buildDynamicCfg(Trace));
  EXPECT_EQ(twppFromBlockSequence(Trace, Shared),
            oracle::twppFromBlockSequence(Trace));
  // The timestamped form is built from the collapsed trace.
  EXPECT_EQ(twppFromBlockSequence(Want.Blocks),
            oracle::twppFromBlockSequence(Want.Blocks));
}

/// A walk of Length steps over a random CFG of Blocks nodes, each with
/// one or two successors, renamed through a random 32-bit id per node:
/// the walk has loops and chains, and its ids span the whole range.
PathTrace randomWalk(Rng &R, uint32_t Blocks, uint32_t Length,
                     bool WideIds) {
  std::vector<BlockId> Id(Blocks);
  for (uint32_t B = 0; B != Blocks; ++B)
    Id[B] = WideIds ? static_cast<BlockId>(R.next()) : B + 1;
  std::vector<std::vector<uint32_t>> Succ(Blocks);
  for (uint32_t B = 0; B != Blocks; ++B) {
    Succ[B].push_back(static_cast<uint32_t>(R.nextBelow(Blocks)));
    if (R.nextBelow(3) == 0)
      Succ[B].push_back(static_cast<uint32_t>(R.nextBelow(Blocks)));
  }
  PathTrace Trace;
  uint32_t At = 0;
  for (uint32_t Step = 0; Step != Length; ++Step) {
    Trace.push_back(Id[At]);
    At = Succ[At][R.nextBelow(Succ[At].size())];
  }
  return Trace;
}

TEST(WritePathOracle, RandomTraces) {
  DenseIndex Shared;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    Rng R(Seed);
    uint32_t Blocks = 1 + static_cast<uint32_t>(R.nextBelow(200));
    uint32_t Length = static_cast<uint32_t>(R.nextBelow(3000));
    expectMatchesOracles(randomWalk(R, Blocks, Length, Seed % 2 == 0),
                         Shared);
    // Unstructured: uniform ids, few chains.
    PathTrace Noise(R.nextBelow(500));
    for (BlockId &B : Noise)
      B = static_cast<BlockId>(R.nextBelow(1 + Seed * 7));
    expectMatchesOracles(Noise, Shared);
  }
}

TEST(WritePathOracle, ManyDistinctBlocksGrowTheTables) {
  // 40,000 distinct wide ids force every table through many doublings;
  // the short trace after it runs on the grown, reused tables.
  Rng R(99);
  DenseIndex Shared;
  expectMatchesOracles(randomWalk(R, 40000, 120000, true), Shared);
  expectMatchesOracles({7, 8, 9, 7, 8, 9}, Shared);
}

TEST(WritePathOracle, IdsAtBothEndsOfTheRange) {
  DenseIndex Shared;
  for (const PathTrace &Trace : std::vector<PathTrace>{
           {0, UINT32_MAX},
           {UINT32_MAX, 0},
           {0, UINT32_MAX, 0, UINT32_MAX, 0},
           {UINT32_MAX, UINT32_MAX, 0, 0, UINT32_MAX},
           {0, 1, UINT32_MAX - 1, UINT32_MAX, 0, 1, UINT32_MAX - 1,
            UINT32_MAX},
       })
    expectMatchesOracles(Trace, Shared);
}

TEST(WritePathOracle, IdsTwoToTheThirtyOneApart) {
  constexpr BlockId Half = 1u << 31;
  DenseIndex Shared;
  for (const PathTrace &Trace : std::vector<PathTrace>{
           {0, Half, 0, Half},
           {1, 1 + Half, 2, 2 + Half, 1, 1 + Half, 2, 2 + Half, 3},
           {Half, 0, Half + 5, 5, Half, 0, Half + 5, 5},
       })
    expectMatchesOracles(Trace, Shared);
  // A loop whose ids agree in their low 31 bits pairwise.
  PathTrace Loop;
  for (int I = 0; I != 500; ++I)
    for (BlockId B = 10; B != 16; ++B)
      Loop.push_back(I % 3 == 0 ? B : B + Half);
  expectMatchesOracles(Loop, Shared);
}

TEST(WritePathOracle, TracesOfLengthOneAndTwo) {
  DenseIndex Shared;
  for (const PathTrace &Trace : std::vector<PathTrace>{
           {}, {5}, {0}, {UINT32_MAX}, {5, 5}, {5, 6}, {6, 5},
           {0, UINT32_MAX}})
    expectMatchesOracles(Trace, Shared);
}

TEST(WritePathOracle, OneBlockRepeated) {
  DenseIndex Shared;
  expectMatchesOracles(PathTrace(100000, 42), Shared);
}

TEST(WritePathOracle, MillionIterationLoop) {
  // entry, then a two-block loop body a million times, then exit: one
  // chain (the body), collapsed to a million heads.
  PathTrace Trace;
  Trace.reserve(2000002);
  Trace.push_back(1);
  for (int I = 0; I != 1000000; ++I) {
    Trace.push_back(2);
    Trace.push_back(3);
  }
  Trace.push_back(4);
  DenseIndex Shared;
  expectMatchesOracles(Trace, Shared);
  CompactedTrace Compacted = compactWithDbbs(Trace, Shared);
  EXPECT_EQ(Compacted.Blocks.size(), 1000002u);
  ASSERT_EQ(Compacted.Dictionary.Chains.size(), 1u);
  EXPECT_EQ(Compacted.Dictionary.Chains[0], (std::vector<BlockId>{2, 3}));
}

} // namespace
