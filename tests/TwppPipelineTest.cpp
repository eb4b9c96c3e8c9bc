//===- tests/TwppPipelineTest.cpp - TWPP conversion & full pipeline --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Twpp.h"

#include "TestTraces.h"
#include "wpp/Sizes.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

TEST(TwppTraceTest, PaperSection2Example) {
  // WPP trace 1.2.2.2.2.2.6 -> {1 -> {1}, 2 -> {2..6}, 6 -> {7}} ->
  // compacted {1 -> {-1}, 2 -> {2:-6}, 6 -> {-7}}.
  std::vector<BlockId> Sequence = {1, 2, 2, 2, 2, 2, 6};
  TwppTrace Trace = twppFromBlockSequence(Sequence);
  EXPECT_EQ(Trace.Length, 7u);
  ASSERT_EQ(Trace.Blocks.size(), 3u);
  EXPECT_EQ(Trace.Blocks[0].first, 1u);
  EXPECT_EQ(Trace.Blocks[0].second.encodeSigned(),
            (std::vector<int64_t>{-1}));
  EXPECT_EQ(Trace.Blocks[1].first, 2u);
  EXPECT_EQ(Trace.Blocks[1].second.encodeSigned(),
            (std::vector<int64_t>{2, -6}));
  EXPECT_EQ(Trace.Blocks[2].first, 6u);
  EXPECT_EQ(Trace.Blocks[2].second.encodeSigned(),
            (std::vector<int64_t>{-7}));

  std::vector<BlockId> Back;
  ASSERT_TRUE(blockSequenceFromTwpp(Trace, Back));
  EXPECT_EQ(Back, Sequence);
}

TEST(TwppTraceTest, TimestampsOfLookup) {
  TwppTrace Trace = twppFromBlockSequence({5, 9, 5, 9, 5});
  ASSERT_NE(Trace.timestampsOf(5), nullptr);
  EXPECT_EQ(Trace.timestampsOf(5)->toVector(),
            (std::vector<Timestamp>{1, 3, 5}));
  EXPECT_EQ(Trace.timestampsOf(7), nullptr);
}

TEST(TwppTraceTest, InverseRejectsInconsistentTraces) {
  TwppTrace Trace;
  Trace.Length = 3;
  Trace.Blocks.emplace_back(1, TimestampSet::fromSorted({1, 2}));
  // Timestamp 3 missing.
  std::vector<BlockId> Back;
  EXPECT_FALSE(blockSequenceFromTwpp(Trace, Back));

  // Overlapping timestamps.
  Trace.Blocks.emplace_back(2, TimestampSet::fromSorted({2, 3}));
  EXPECT_FALSE(blockSequenceFromTwpp(Trace, Back));
}

TEST(PipelineTest, PaperFigure5TupleSharing) {
  // After DBB compaction, f's two unique traces share one trace string
  // (1.2.2.2.10) with two dictionaries (paper Figure 5).
  RawTrace Trace = fixtures::figure1Trace();
  DbbWpp Dbb = applyDbbCompaction(partitionWpp(Trace));

  const DbbFunctionTable &F = Dbb.Functions[1];
  ASSERT_EQ(F.Traces.size(), 2u);
  EXPECT_EQ(F.TraceStrings.size(), 1u);
  EXPECT_EQ(F.Dictionaries.size(), 2u);
  EXPECT_EQ(F.TraceStrings[0], (std::vector<BlockId>{1, 2, 2, 2, 10}));
  EXPECT_EQ(F.Traces[0].first, F.Traces[1].first);   // shared string
  EXPECT_NE(F.Traces[0].second, F.Traces[1].second); // distinct dicts
}

TEST(PipelineTest, FullPipelineIsLosslessOnFigure1) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Trace);
}

TEST(PipelineTest, ExpandFunctionTracesMatchesPartition) {
  RawTrace Trace = fixtures::figure1Trace();
  PartitionedWpp Partitioned = partitionWpp(Trace);
  TwppWpp Compacted = compactWpp(Trace);

  for (size_t F = 0; F < Compacted.Functions.size(); ++F) {
    FunctionPathTraces Expanded =
        expandFunctionTraces(Compacted.Functions[F]);
    EXPECT_EQ(Expanded.Traces, Partitioned.Functions[F].UniqueTraces);
    EXPECT_EQ(Expanded.UseCounts, Partitioned.Functions[F].UseCounts);
    EXPECT_EQ(Expanded.CallCount, Partitioned.Functions[F].CallCount);
  }
}

TEST(PipelineTest, StageInversesCompose) {
  RawTrace Trace = fixtures::randomTrace(4242);
  PartitionedWpp Partitioned = partitionWpp(Trace);
  DbbWpp Dbb = applyDbbCompaction(Partitioned);
  TwppWpp Twpp = convertToTwpp(Dbb);

  DbbWpp DbbBack;
  EXPECT_TRUE(twppToDbb(Twpp, DbbBack));
  EXPECT_EQ(DbbBack, Dbb);
  PartitionedWpp PartitionedBack = dbbToPartitioned(Dbb);
  EXPECT_EQ(PartitionedBack.Dcg, Partitioned.Dcg);
  for (size_t F = 0; F < Partitioned.Functions.size(); ++F) {
    EXPECT_EQ(PartitionedBack.Functions[F].UniqueTraces,
              Partitioned.Functions[F].UniqueTraces);
    EXPECT_EQ(PartitionedBack.Functions[F].UseCounts,
              Partitioned.Functions[F].UseCounts);
  }
}

TEST(SizesTest, StagesShrinkMonotonically) {
  RawTrace Trace = fixtures::figure1Trace();
  PartitionedWpp Partitioned = partitionWpp(Trace);
  DbbWpp Dbb = applyDbbCompaction(Partitioned);
  TwppWpp Twpp = convertToTwpp(Dbb);
  StageSizes Sizes = measureStages(Partitioned, Dbb, Twpp);

  EXPECT_GT(Sizes.OwppTraceBytes, Sizes.DedupedTraceBytes);
  EXPECT_GT(Sizes.DedupedTraceBytes, Sizes.DbbTraceBytes);
  EXPECT_GT(Sizes.DictionaryBytes, 0u);
  EXPECT_GT(Sizes.TwppTraceBytes, 0u);
  EXPECT_GT(Sizes.CompactedDcgBytes, 0u);
}

TEST(SizesTest, OwppSplitsAccountEverything) {
  RawTrace Trace = fixtures::figure1Trace();
  PartitionedWpp Partitioned = partitionWpp(Trace);
  OwppSizes Owpp = measureOwpp(Partitioned);
  EXPECT_GT(Owpp.DcgBytes, 0u);
  // 6 calls x 17 blocks, one byte per small block id + length prefixes.
  EXPECT_GT(Owpp.TraceBytes, 100u);
  EXPECT_EQ(Owpp.totalBytes(), Owpp.DcgBytes + Owpp.TraceBytes);
}

/// Property sweep: the full pipeline is lossless on random traces.
class PipelineRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineRoundTrip, RandomTraces) {
  RawTrace Trace = fixtures::randomTrace(GetParam(), 6, 6000);
  TwppWpp Compacted = compactWpp(Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Trace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineRoundTrip,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28,
                                           29, 30, 31, 32));

} // namespace
