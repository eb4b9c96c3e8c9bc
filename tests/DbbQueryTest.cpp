//===- tests/DbbQueryTest.cpp - queries over DBB-compacted CFGs ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The demand-driven engine must give identical answers whether the
// annotated dynamic CFG is built at raw block granularity or over
// DBB-compacted traces (where one node covers a chain of static blocks
// and chainEffect folds the chain's GEN/KILLs). These tests run the same
// queries both ways and compare resolution *counts* (timestamp
// coordinates legitimately differ between granularities).
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/Query.h"

#include "support/Random.h"
#include "wpp/Archive.h"
#include "wpp/Dbb.h"

#include "ReadPaths.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace twpp;

namespace {

BlockEffect genKillEffect(BlockId Block) {
  if (Block == 1)
    return BlockEffect::Gen;
  if (Block == 6)
    return BlockEffect::Kill;
  return BlockEffect::Transparent;
}

/// Builds both views of the same path trace.
struct TwoViews {
  AnnotatedDynamicCfg Raw;
  AnnotatedDynamicCfg Compacted;

  explicit TwoViews(const PathTrace &Trace) {
    Raw = buildAnnotatedCfgFromSequence(Trace);
    CompactedTrace C = compactWithDbbs(Trace);
    Compacted = buildAnnotatedCfg(twppFromBlockSequence(C.Blocks),
                                  C.Dictionary);
  }
};

/// Frequency of the fact before every execution of the node whose
/// expansion *starts* with \p Block (in the compacted view the query
/// lands on the chain head).
FactFrequency queryOn(const AnnotatedDynamicCfg &Cfg, BlockId Head) {
  return factFrequency(Cfg, Head, genKillEffect);
}

TEST(DbbQueryTest, ChainFoldedKillMatchesRawView) {
  // 2.3.6 forms a chain ending in a kill; queries at 4 see the kill
  // through the folded chain effect.
  PathTrace Trace = {1, 2, 3, 6, 4, 1, 2, 3, 6, 4, 1, 4};
  TwoViews Views(Trace);

  FactFrequency RawFreq = queryOn(Views.Raw, 4);
  FactFrequency CompactedFreq = queryOn(Views.Compacted, 4);
  EXPECT_EQ(RawFreq.Total, 3u);
  EXPECT_EQ(RawFreq.Holds, 1u); // only the last 4, after a bare 1
  EXPECT_EQ(CompactedFreq.Total, RawFreq.Total);
  EXPECT_EQ(CompactedFreq.Holds, RawFreq.Holds);
  // The compacted view needs no more queries than the raw one.
  EXPECT_LE(CompactedFreq.QueriesGenerated, RawFreq.QueriesGenerated);
}

TEST(DbbQueryTest, GenInsideChainSurvivesFolding) {
  // The whole iteration 1.5.4 collapses to a single DBB headed by 1
  // (gen at the head). Querying "before the chain" sees the previous
  // iteration's gen; the first instance reaches the entry.
  PathTrace Trace = {1, 5, 4, 1, 5, 4, 1, 5, 4};
  TwoViews Views(Trace);
  ASSERT_EQ(Views.Compacted.Nodes.size(), 1u);
  FactFrequency RawFreq = queryOn(Views.Raw, 1);
  FactFrequency CompactedFreq = queryOn(Views.Compacted, 1);
  EXPECT_EQ(RawFreq.Total, 3u);
  EXPECT_EQ(RawFreq.Holds, 2u);
  EXPECT_EQ(CompactedFreq.Total, RawFreq.Total);
  EXPECT_EQ(CompactedFreq.Holds, RawFreq.Holds);
}

TEST(DbbQueryTest, KillThenGenInsideOneChain) {
  // Chain 6.1.4 contains a kill followed by a gen: backward queries
  // through it must resolve Gen (the last non-transparent member).
  PathTrace Trace = {6, 1, 4, 6, 1, 4};
  TwoViews Views(Trace);
  FactFrequency RawFreq = queryOn(Views.Raw, 6);
  FactFrequency CompactedFreq = queryOn(Views.Compacted, 6);
  EXPECT_EQ(RawFreq.Total, 2u);
  EXPECT_EQ(RawFreq.Holds, 1u); // second instance sees the gen at 1
  EXPECT_EQ(CompactedFreq.Total, RawFreq.Total);
  EXPECT_EQ(CompactedFreq.Holds, RawFreq.Holds);
}

/// Property sweep: raw and compacted views agree on hold/total counts
/// for every queryable head block.
class DbbQueryEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DbbQueryEquivalence, RandomLoopTraces) {
  Rng R(GetParam());
  for (int Iter = 0; Iter < 25; ++Iter) {
    // Loop-structured random trace so chains actually form.
    PathTrace Trace;
    size_t Loops = 1 + R.nextBelow(20);
    std::vector<BlockId> Body;
    size_t BodyLength = 2 + R.nextBelow(5);
    for (size_t I = 0; I < BodyLength; ++I)
      Body.push_back(1 + static_cast<BlockId>(R.nextBelow(8)));
    for (size_t L = 0; L < Loops; ++L) {
      for (BlockId B : Body)
        Trace.push_back(B);
      if (R.nextBool(0.3))
        Trace.push_back(1 + static_cast<BlockId>(R.nextBelow(8)));
    }

    TwoViews Views(Trace);
    // Query every head that exists in the compacted view: its raw
    // counterpart is the same static block (chain heads are entered at
    // their first block, so instance counts coincide).
    for (const AnnotatedNode &Node : Views.Compacted.Nodes) {
      FactFrequency CompactedFreq = queryOn(Views.Compacted, Node.Head);
      FactFrequency RawFreq = queryOn(Views.Raw, Node.Head);
      EXPECT_EQ(CompactedFreq.Total, RawFreq.Total)
          << "head " << Node.Head << " iter " << Iter;
      EXPECT_EQ(CompactedFreq.Holds, RawFreq.Holds)
          << "head " << Node.Head << " iter " << Iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbbQueryEquivalence,
                         ::testing::Values(81, 82, 83, 84, 85, 86));

TEST(DbbQueryTest, ArchiveRoutedQueriesAgreeAcrossIoModes) {
  // End-to-end differential: route path traces through an on-disk
  // archive, extract them via both read paths, and run the demand-driven
  // queries over CFGs built from each side. Every extracted structure
  // and every query answer must be identical.
  RawTrace Trace = fixtures::randomTrace(4242, 6, 2000);
  TwppWpp Compacted = compactWpp(Trace);
  std::string Path = ::testing::TempDir() + "/dbb_query_io_modes.twpp";
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  ArchiveReader Buffered, Mapped;
  ASSERT_TRUE(
      fixtures::openOn(Buffered, Path, fixtures::ReadPath::Buffered));
  ASSERT_TRUE(fixtures::openOn(Mapped, Path, fixtures::ReadPath::Mmap));
  ASSERT_TRUE(Mapped.mapped());

  for (FunctionId F = 0; F != Buffered.functionCount(); ++F) {
    FunctionPathTraces FromBuffered, FromMapped;
    ASSERT_TRUE(Buffered.extractFunctionPathTraces(F, FromBuffered));
    ASSERT_TRUE(Mapped.extractFunctionPathTraces(F, FromMapped));
    ASSERT_EQ(FromBuffered.Traces, FromMapped.Traces);
    ASSERT_EQ(FromBuffered.UseCounts, FromMapped.UseCounts);
    ASSERT_EQ(FromBuffered.CallCount, FromMapped.CallCount);

    for (size_t T = 0; T != FromBuffered.Traces.size(); ++T) {
      if (FromBuffered.Traces[T].empty())
        continue;
      AnnotatedDynamicCfg CfgA =
          buildAnnotatedCfgFromSequence(FromBuffered.Traces[T]);
      AnnotatedDynamicCfg CfgB =
          buildAnnotatedCfgFromSequence(FromMapped.Traces[T]);
      for (const AnnotatedNode &Node : CfgA.Nodes) {
        FactFrequency A = queryOn(CfgA, Node.Head);
        FactFrequency B = queryOn(CfgB, Node.Head);
        EXPECT_EQ(A.Total, B.Total) << "fn " << F << " head " << Node.Head;
        EXPECT_EQ(A.Holds, B.Holds) << "fn " << F << " head " << Node.Head;
        EXPECT_EQ(A.QueriesGenerated, B.QueriesGenerated);
      }
    }
  }
  std::remove(Path.c_str());
}

} // namespace
