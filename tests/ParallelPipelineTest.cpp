//===- tests/ParallelPipelineTest.cpp - parallelFor + determinism ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for parallelFor, and the determinism guarantee of the
/// parallel compaction path: for any job count the pipeline must produce
/// results — down to the archive bytes — identical to the serial path.
///
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/Parallel.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"
#include "wpp/Streaming.h"

#include "TestTraces.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace twpp;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelFor, CoversEveryIndex) {
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> Hits(257);
    parallelFor(ParallelConfig::withJobs(Jobs), Hits.size(),
                [&Hits](size_t I) {
                  Hits[I].fetch_add(1, std::memory_order_relaxed);
                });
    for (size_t I = 0; I < Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "jobs " << Jobs << " index " << I;
  }
}

TEST(ParallelFor, ZeroAndOneElementRanges) {
  int Calls = 0;
  parallelFor(ParallelConfig::withJobs(8), 0,
              [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  parallelFor(ParallelConfig::withJobs(8), 1,
              [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 1);
}

TEST(ParallelFor, MatchesSerialResult) {
  // Independent per-slot writes: the parallel schedule must not change
  // the result.
  std::vector<uint64_t> Serial(1000), Parallel(1000);
  auto Fill = [](std::vector<uint64_t> &Out) {
    return [&Out](size_t I) { Out[I] = I * I + 7; };
  };
  parallelFor(ParallelConfig::withJobs(1), Serial.size(), Fill(Serial));
  parallelFor(ParallelConfig::withJobs(8), Parallel.size(), Fill(Parallel));
  EXPECT_EQ(Serial, Parallel);
}

TEST(ParallelFor, AtMostOneJobRunsInline) {
  // Jobs is a plain count: 0 and 1 both run every index on the caller.
  for (unsigned Jobs : {0u, 1u}) {
    std::vector<std::thread::id> Ran;
    parallelFor(ParallelConfig::withJobs(Jobs), 3,
                [&Ran](size_t) { Ran.push_back(std::this_thread::get_id()); });
    EXPECT_EQ(Ran, std::vector<std::thread::id>(3, std::this_thread::get_id()))
        << "jobs " << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Parallel pipeline determinism
//===----------------------------------------------------------------------===//

/// Runs the three fanned-out stages (DBB, TWPP, archive encode) under
/// \p Config.
std::vector<uint8_t> compactAndEncode(const RawTrace &Trace,
                                      const ParallelConfig &Config,
                                      TwppWpp &Wpp) {
  Wpp = convertToTwpp(applyDbbCompaction(partitionWpp(Trace), Config),
                      Config);
  return encodeArchive(Wpp, Config);
}

/// Compacts \p Trace serially and with 8 jobs and asserts every stage
/// result and the final archive bytes are identical.
void checkJobCountInvariance(const RawTrace &Trace, const std::string &Tag) {
  TwppWpp SerialWpp, WideWpp;
  std::vector<uint8_t> SerialBytes =
      compactAndEncode(Trace, ParallelConfig::withJobs(1), SerialWpp);
  std::vector<uint8_t> WideBytes =
      compactAndEncode(Trace, ParallelConfig::withJobs(8), WideWpp);
  ASSERT_EQ(SerialWpp, WideWpp) << Tag;
  ASSERT_EQ(SerialBytes, WideBytes) << Tag << ": archive bytes differ";
}

TEST(ParallelDeterminism, Figure1Trace) {
  checkJobCountInvariance(fixtures::figure1Trace(), "figure1");
}

TEST(ParallelDeterminism, RandomTraces) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    checkJobCountInvariance(fixtures::randomTrace(Seed, 8, 3000),
                            "seed " + std::to_string(Seed));
}

TEST(ParallelDeterminism, TestProfileWorkloads) {
  // The reduced-scale paper workloads: realistic shape, many functions,
  // skewed per-function work.
  for (const WorkloadProfile &Profile : testProfiles()) {
    RawTrace Trace = generateWorkloadTrace(Profile);
    checkJobCountInvariance(Trace, Profile.Name);
  }
}

TEST(ParallelDeterminism, ArchiveFilesAreByteIdentical) {
  // cmp-level check through the file layer, the satellite's exact claim:
  // One-job and eight-job archives compare equal byte for byte.
  RawTrace Trace = generateWorkloadTrace(testProfiles().front());
  TwppWpp Wpp = compactWpp(Trace);

  std::string PathSerial = tempPath("jobs1.twpp");
  std::string PathWide = tempPath("jobs8.twpp");
  ASSERT_TRUE(
      writeArchiveFile(PathSerial, Wpp, ParallelConfig::withJobs(1)));
  ASSERT_TRUE(writeArchiveFile(PathWide, Wpp, ParallelConfig::withJobs(8)));

  std::vector<uint8_t> SerialBytes, WideBytes;
  ASSERT_TRUE(readFileBytes(PathSerial, SerialBytes));
  ASSERT_TRUE(readFileBytes(PathWide, WideBytes));
  EXPECT_EQ(SerialBytes, WideBytes);
  std::remove(PathSerial.c_str());
  std::remove(PathWide.c_str());
}

TEST(ParallelDeterminism, StreamingCompactorParallelPath) {
  // The online sink's parallel finalization must equal the serial batch
  // pipeline result.
  RawTrace Trace = fixtures::randomTrace(99, 6, 2500);
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
  EXPECT_EQ(Sink.takeCompacted(ParallelConfig::withJobs(8)),
            compactWpp(Trace));
}

} // namespace
