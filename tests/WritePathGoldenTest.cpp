//===- tests/WritePathGoldenTest.cpp - write-path byte identity -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden values for the write path: the size and crc32 of every archive
/// the test-scale profiles compact to (at one and at four jobs for the
/// fanned-out single-threaded stages), and of the streaming compactor's
/// checkpoint payload after a fixed event prefix. The values were recorded from the reference implementation;
/// any change to partitioning, DBB chaining, TWPP conversion, LZW or the
/// archive layout that alters a single output byte fails here. A change
/// that means to alter the bytes must re-record the table and say why.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "workloads/Concurrent.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"
#include "wpp/Streaming.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace twpp;

namespace {

struct Golden {
  const char *Name;
  uint64_t Bytes;
  uint32_t Crc;
};

uint32_t crcOf(const std::vector<uint8_t> &Bytes) {
  return crc32(Bytes.data(), Bytes.size());
}

const Golden *find(const std::vector<Golden> &Table, const std::string &Name) {
  for (const Golden &G : Table)
    if (Name == G.Name)
      return &G;
  return nullptr;
}

// encodeArchive(compactWpp(generateWorkloadTrace(P))) per testProfiles().
const std::vector<Golden> ArchiveGolden = {
    {"099.go-test", 48019, 0x08045277u},
    {"126.gcc-test", 116534, 0x4D360E48u},
    {"130.li-test", 11935, 0xF572C037u},
    {"132.ijpeg-test", 10325, 0x6281C6BEu},
    {"134.perl-test", 3841, 0xC1D6A681u},
};

// encodeConcurrentArchive(compactConcurrentWpp(...)) per
// testConcurrentProfiles(): version-3 archives, whose HBEG holds edge
// runs (the parallel profiles' edges are all runs of one).
const std::vector<Golden> ConcurrentGolden = {
    {"contended", 1982, 0x8754244Bu},
    {"contended-racy", 1997, 0x414F1D61u},
    {"pipelined", 6403, 0x9D050E43u},
    {"pipelined-racy", 6435, 0x55F5A6F5u},
    {"parallel", 4462, 0x5C425B88u},
    {"parallel-racy", 4526, 0xDA327321u},
};

class WritePathGolden : public ::testing::TestWithParam<unsigned> {};

TEST_P(WritePathGolden, ArchivesMatchRecordedBytes) {
  ParallelConfig Config = ParallelConfig::withJobs(GetParam());
  std::vector<WorkloadProfile> Profiles = testProfiles();
  ASSERT_EQ(Profiles.size(), ArchiveGolden.size());
  for (const WorkloadProfile &Profile : Profiles) {
    const Golden *G = find(ArchiveGolden, Profile.Name);
    ASSERT_NE(G, nullptr) << Profile.Name;
    std::vector<uint8_t> Bytes = encodeArchive(
        convertToTwpp(applyDbbCompaction(
                          partitionWpp(generateWorkloadTrace(Profile)), Config),
                      Config),
        Config);
    EXPECT_EQ(Bytes.size(), G->Bytes) << Profile.Name;
    EXPECT_EQ(crcOf(Bytes), G->Crc) << Profile.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, WritePathGolden, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return "Jobs" + std::to_string(Info.param);
                         });

TEST(WritePathGolden, ConcurrentArchivesMatchRecordedBytes) {
  std::vector<ConcurrentProfile> Profiles = testConcurrentProfiles();
  ASSERT_EQ(Profiles.size(), ConcurrentGolden.size());
  for (const ConcurrentProfile &Profile : Profiles) {
    const Golden *G = find(ConcurrentGolden, Profile.Name);
    ASSERT_NE(G, nullptr) << Profile.Name;
    std::vector<uint8_t> Bytes = encodeConcurrentArchive(
        compactConcurrentWpp(generateConcurrentTrace(Profile)));
    EXPECT_EQ(Bytes.size(), G->Bytes) << Profile.Name;
    EXPECT_EQ(crcOf(Bytes), G->Crc) << Profile.Name;
  }
}

/// Feeds the first \p Events events of \p Trace into \p Sink.
void feedPrefix(StreamingCompactor &Sink, const RawTrace &Trace,
                size_t Events) {
  for (size_t I = 0; I < Events; ++I) {
    const TraceEvent &Event = Trace.Events[I];
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

// 126.gcc-test's first SnapshotPrefix events: the checkpoint payload of
// an unbounded compactor, and of one held to a 192 KiB budget (which
// degrades frames once the prefix outgrows it).
constexpr size_t SnapshotPrefix = 200000;

TEST(WritePathGolden, StreamingSnapshotMatchesRecordedBytes) {
  RawTrace Trace = generateWorkloadTrace(testProfiles()[1]);
  ASSERT_GE(Trace.Events.size(), SnapshotPrefix);
  StreamingCompactor Sink(Trace.FunctionCount);
  feedPrefix(Sink, Trace, SnapshotPrefix);
  std::vector<uint8_t> State = Sink.snapshotState();
  EXPECT_EQ(State.size(), 83995u);
  EXPECT_EQ(crcOf(State), 0xE3B883B5u);
  EXPECT_EQ(Sink.trackedStateBytes(), 273164u);
}

TEST(WritePathGolden, BudgetedStreamingSnapshotMatchesRecordedBytes) {
  RawTrace Trace = generateWorkloadTrace(testProfiles()[1]);
  ASSERT_GE(Trace.Events.size(), SnapshotPrefix);
  StreamingConfig Config;
  Config.MemoryBudgetBytes = 192 * 1024;
  StreamingCompactor Sink(Trace.FunctionCount, Config);
  feedPrefix(Sink, Trace, SnapshotPrefix);
  std::vector<uint8_t> State = Sink.snapshotState();
  EXPECT_EQ(State.size(), 66003u);
  EXPECT_EQ(crcOf(State), 0x2B231596u);
  EXPECT_EQ(Sink.trackedStateBytes(), 198908u);
  EXPECT_EQ(Sink.degradedFrames(), 102356u);
}

} // namespace
