//===- tests/DataflowTest.cpp - profile-limited GEN-KILL analysis ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/Query.h"

#include "DataflowOracle.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

/// The paper's Figure 9 loop trace: 100 iterations, block 1 loads (GEN),
/// block 6 stores (KILL), block 4 re-loads (the query point). Paths:
/// (1.2.3.4.5) x30, (1.2.7.4.5) x30, (1.6.7.5) x40 — matching the stated
/// frequencies 1:100, 4:60, 6:40.
std::vector<BlockId> figure9Sequence() {
  std::vector<BlockId> Seq;
  for (int I = 0; I < 30; ++I)
    for (BlockId B : {1, 2, 3, 4, 5})
      Seq.push_back(B);
  for (int I = 0; I < 30; ++I)
    for (BlockId B : {1, 2, 7, 4, 5})
      Seq.push_back(B);
  for (int I = 0; I < 40; ++I)
    for (BlockId B : {1, 6, 7, 5})
      Seq.push_back(B);
  return Seq;
}

BlockEffect figure9Effect(BlockId Block) {
  if (Block == 1)
    return BlockEffect::Gen; // 1_Load makes the value available
  if (Block == 6)
    return BlockEffect::Kill; // 6_Store kills it
  return BlockEffect::Transparent;
}

TEST(AnnotatedCfgTest, BuildFromSequence) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2, 3, 2, 3, 4});
  ASSERT_EQ(Cfg.Nodes.size(), 4u);
  EXPECT_EQ(Cfg.Length, 6u);
  size_t N2 = Cfg.nodeIndexOf(2);
  ASSERT_NE(N2, AnnotatedDynamicCfg::npos);
  EXPECT_EQ(Cfg.Nodes[N2].Times.toVector(), (std::vector<Timestamp>{2, 4}));
  // Preds of 2 are 1 and 3.
  std::vector<BlockId> PredHeads;
  for (uint32_t P : Cfg.Nodes[N2].Preds)
    PredHeads.push_back(Cfg.Nodes[P].Head);
  EXPECT_EQ(PredHeads, (std::vector<BlockId>{1, 3}));
  EXPECT_EQ(Cfg.nodeAt(4), N2);
  EXPECT_EQ(Cfg.nodeAt(0), AnnotatedDynamicCfg::npos);
  EXPECT_EQ(Cfg.nodeAt(7), AnnotatedDynamicCfg::npos);
}

TEST(AnnotatedCfgTest, DbbExpansionCarried) {
  // Compacted trace with a dictionary: head 2 expands to 2.3.4.
  DbbDictionary Dict;
  Dict.Chains.push_back({2, 3, 4});
  TwppTrace Trace = twppFromBlockSequence({1, 2, 2, 6});
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, Dict);
  size_t N2 = Cfg.nodeIndexOf(2);
  ASSERT_NE(N2, AnnotatedDynamicCfg::npos);
  EXPECT_EQ(Cfg.Nodes[N2].StaticBlocks, (std::vector<BlockId>{2, 3, 4}));
}

TEST(ChainEffectTest, LastNonTransparentWins) {
  auto Effect = [](BlockId B) {
    if (B == 1)
      return BlockEffect::Gen;
    if (B == 2)
      return BlockEffect::Kill;
    return BlockEffect::Transparent;
  };
  EXPECT_EQ(chainEffect({1, 3}, Effect), BlockEffect::Gen);
  EXPECT_EQ(chainEffect({1, 2}, Effect), BlockEffect::Kill);
  EXPECT_EQ(chainEffect({2, 1}, Effect), BlockEffect::Gen);
  EXPECT_EQ(chainEffect({3, 4}, Effect), BlockEffect::Transparent);
  EXPECT_EQ(chainEffect({}, Effect), BlockEffect::Transparent);
}

TEST(QueryTest, Figure9LoadIsAlwaysRedundant) {
  AnnotatedDynamicCfg Cfg =
      buildAnnotatedCfgFromSequence(figure9Sequence());
  FactFrequency Freq = factFrequency(Cfg, 4, figure9Effect);

  // 4_Load executes 60 times and the loaded value is available every
  // time: degree of redundancy 100% (paper Figure 9).
  EXPECT_EQ(Freq.Total, 60u);
  EXPECT_EQ(Freq.Holds, 60u);
  EXPECT_DOUBLE_EQ(Freq.ratio(), 1.0);
  // Demand-driven propagation needs only a handful of queries despite
  // the 100 loop iterations (the paper reports 6).
  EXPECT_LE(Freq.QueriesGenerated, 8u);
  EXPECT_GE(Freq.QueriesGenerated, 3u);
}

TEST(QueryTest, KillOnPathResolvesFalse) {
  // 1(G) 2 4 | 1 6(K) 4 | 1 2 4 : query at 4 -> true, false, true.
  std::vector<BlockId> Seq = {1, 2, 4, 1, 6, 4, 1, 2, 4};
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
  size_t N4 = Cfg.nodeIndexOf(4);
  QueryResult Result = propagateBackward(Cfg, N4, Cfg.Nodes[N4].Times,
                                         figure9Effect);
  EXPECT_EQ(Result.True.toVector(), (std::vector<Timestamp>{3, 9}));
  EXPECT_EQ(Result.False.toVector(), (std::vector<Timestamp>{6}));
  EXPECT_TRUE(Result.AtEntry.empty());
}

TEST(QueryTest, EntryReachedUnresolved) {
  // No GEN before the first execution of 4.
  std::vector<BlockId> Seq = {2, 4, 1, 4};
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
  size_t N4 = Cfg.nodeIndexOf(4);
  QueryResult Result = propagateBackward(Cfg, N4, Cfg.Nodes[N4].Times,
                                         figure9Effect);
  EXPECT_EQ(Result.True.toVector(), (std::vector<Timestamp>{4}));
  EXPECT_EQ(Result.AtEntry.toVector(), (std::vector<Timestamp>{2}));
  EXPECT_TRUE(Result.False.empty());
}

TEST(QueryTest, QueryOnSubsetOfTimestamps) {
  std::vector<BlockId> Seq = {1, 2, 4, 1, 6, 4, 1, 2, 4};
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
  size_t N4 = Cfg.nodeIndexOf(4);
  // Only ask about the middle instance (t=6).
  QueryResult Result = propagateBackward(
      Cfg, N4, TimestampSet::fromSorted({6}), figure9Effect);
  EXPECT_TRUE(Result.True.empty());
  EXPECT_EQ(Result.False.toVector(), (std::vector<Timestamp>{6}));
}

TEST(QueryTest, EmptyQueryShortCircuits) {
  std::vector<BlockId> Seq = {1, 2, 4};
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
  QueryResult Result = propagateBackward(Cfg, Cfg.nodeIndexOf(4),
                                         TimestampSet(), figure9Effect);
  EXPECT_EQ(Result.QueriesGenerated, 0u);
  EXPECT_TRUE(Result.True.empty() && Result.False.empty());
}

/// Oracle check: propagate on random traces, compare against a direct
/// trace walk per instance.
class QueryOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryOracle, MatchesDirectTraceWalk) {
  Rng R(GetParam());
  for (int Iter = 0; Iter < 20; ++Iter) {
    // Random walk over blocks 1..8; 1 gens, 6 kills.
    size_t Length = 3 + R.nextBelow(400);
    std::vector<BlockId> Seq;
    for (size_t I = 0; I < Length; ++I)
      Seq.push_back(1 + static_cast<BlockId>(R.nextBelow(8)));
    BlockId Query = 1 + static_cast<BlockId>(R.nextBelow(8));
    AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
    size_t Node = Cfg.nodeIndexOf(Query);
    if (Node == AnnotatedDynamicCfg::npos)
      continue;
    QueryResult Result = propagateBackward(Cfg, Node, Cfg.Nodes[Node].Times,
                                           figure9Effect);

    for (size_t I = 0; I < Seq.size(); ++I) {
      if (Seq[I] != Query)
        continue;
      Timestamp T = static_cast<Timestamp>(I + 1);
      // Walk backwards to find the last gen/kill before position I.
      int Verdict = 0; // 0 entry, 1 true, -1 false
      for (size_t J = I; J-- > 0;) {
        if (figure9Effect(Seq[J]) == BlockEffect::Gen) {
          Verdict = 1;
          break;
        }
        if (figure9Effect(Seq[J]) == BlockEffect::Kill) {
          Verdict = -1;
          break;
        }
      }
      EXPECT_EQ(Result.True.contains(T), Verdict == 1) << "t=" << T;
      EXPECT_EQ(Result.False.contains(T), Verdict == -1) << "t=" << T;
      EXPECT_EQ(Result.AtEntry.contains(T), Verdict == 0) << "t=" << T;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryOracle,
                         ::testing::Values(3, 6, 9, 12, 15, 18, 21, 24));

/// Appends a random structured trace: straight-line blocks and loops
/// (nested up to \p Depth deep) whose bodies repeat with an occasional
/// alternative block, the shape loops give real path traces.
void appendStructured(Rng &R, unsigned Depth, std::vector<BlockId> &Out) {
  for (uint64_t Items = 1 + R.nextBelow(4); Items-- > 0;) {
    if (Depth == 0 || R.nextBelow(3) != 0) {
      Out.push_back(1 + static_cast<BlockId>(R.nextBelow(12)));
      continue;
    }
    std::vector<BlockId> Body;
    appendStructured(R, Depth - 1, Body);
    BlockId Alternative = 1 + static_cast<BlockId>(R.nextBelow(12));
    for (uint64_t Trips = 1 + R.nextBelow(12); Trips-- > 0;) {
      for (BlockId B : Body)
        Out.push_back(R.nextBelow(8) == 0 ? Alternative : B);
    }
  }
}

/// The flat per-depth frontier answers every query exactly as the
/// std::map propagation over element-wise set algebra does, run for run,
/// with the same sub-query count.
class FrontierOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrontierOracle, MatchesMapPropagation) {
  for (uint64_t Seed = GetParam(); Seed < GetParam() + 25; ++Seed) {
    Rng R(Seed);
    std::vector<BlockId> Seq;
    while (Seq.size() < 40)
      appendStructured(R, 3, Seq);
    Seq.resize(std::min<size_t>(Seq.size(), 400));
    BlockEffect Effects[13];
    for (BlockEffect &E : Effects) {
      uint64_t Roll = R.nextBelow(10);
      E = Roll == 0   ? BlockEffect::Gen
          : Roll == 1 ? BlockEffect::Kill
                      : BlockEffect::Transparent;
    }
    EffectFn Effect = [&](BlockId Block) { return Effects[Block]; };
    AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Seq);
    for (size_t Node = 0; Node != Cfg.Nodes.size(); ++Node) {
      TimestampSet Times = Cfg.Nodes[Node].Times;
      if (R.nextBelow(3) == 0 && Cfg.Length > 2) {
        // A subset: the instances at odd or at even timestamps.
        Timestamp Lo = 1 + static_cast<Timestamp>(R.nextBelow(2));
        Times = Times.intersect(TimestampSet::fromRun(
            Lo, Lo + (Cfg.Length - Lo) / 2 * 2, 2));
      }
      QueryResult Got = propagateBackward(Cfg, Node, Times, Effect);
      QueryResult Want = oracle::propagateBackward(Cfg, Node, Times, Effect);
      ASSERT_TRUE(Got.True == Want.True) << "seed " << Seed << " node "
                                         << Node;
      ASSERT_TRUE(Got.False == Want.False) << "seed " << Seed << " node "
                                           << Node;
      ASSERT_TRUE(Got.AtEntry == Want.AtEntry) << "seed " << Seed
                                               << " node " << Node;
      ASSERT_EQ(Got.QueriesGenerated, Want.QueriesGenerated)
          << "seed " << Seed << " node " << Node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierOracle,
                         ::testing::Values(0, 25, 50, 75, 100, 125, 150,
                                           175));

TEST(QueryTest, OutOfRangeNodeGivesEmptyResult) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(figure9Sequence());
  QueryResult Result = propagateBackward(
      Cfg, Cfg.Nodes.size(), TimestampSet::fromRun(1, 5, 1), figure9Effect);
  EXPECT_EQ(Result.QueriesGenerated, 0u);
  EXPECT_TRUE(Result.True.empty() && Result.False.empty() &&
              Result.AtEntry.empty());
}

TEST(AnnotatedCfgTest, OverlappingTimestampSetsGetNoEdges) {
  // 1 2 1 3 x3, then block 3 is given block 2's timestamps: the sets no
  // longer tile 1..12 and no block sequence exists to derive edges from.
  std::vector<BlockId> Seq;
  for (int I = 0; I < 3; ++I)
    Seq.insert(Seq.end(), {1, 2, 1, 3});
  TwppTrace Trace = twppFromBlockSequence(Seq);
  ASSERT_EQ(Trace.Blocks.size(), 3u);
  Trace.Blocks[2].second = Trace.Blocks[1].second;
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, DbbDictionary());
  ASSERT_EQ(Cfg.Nodes.size(), 3u);
  EXPECT_EQ(Cfg.Length, 12u);
  EXPECT_EQ(Cfg.edgeCount(), 0u);
  EXPECT_EQ(Cfg.Nodes[2].Times, Cfg.Nodes[1].Times);
  FactFrequency Freq = factFrequency(Cfg, 3, figure9Effect);
  EXPECT_EQ(Freq.Holds, 0u);
  EXPECT_EQ(Freq.Total, 3u);
}

TEST(AnnotatedCfgTest, UnsortedBlockIdsNeverIndexMissingNodes) {
  // Delta-coded block ids can wrap, leaving the blocks unsorted; a lookup
  // that misses must drop the edge, not index with npos.
  TwppTrace Trace = twppFromBlockSequence({5, 7, 5, 9});
  std::swap(Trace.Blocks[0], Trace.Blocks[2]);
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, DbbDictionary());
  EXPECT_EQ(Cfg.Nodes.size(), 3u);
  EXPECT_LE(Cfg.edgeCount(), 3u);
}

} // namespace
