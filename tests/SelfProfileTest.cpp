//===- tests/SelfProfileTest.cpp - TWPP-on-TWPP self-profiling tests -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Covers the B/E -> Enter/Exit lowering (obs/SelfProfile.h
// adaptSpanRecords) including span-path interning, the merge of several
// threads' roots and ring-wraparound truncation, the sidecar round trip,
// and the end-to-end SelfProfiler run whose archive must satisfy the full
// verifier.
//
//===----------------------------------------------------------------------===//

#include "obs/PhaseSpan.h"
#include "obs/SelfProfile.h"
#include "support/Parallel.h"
#include "verify/Verify.h"
#include "wpp/Archive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace twpp;

namespace {

//===----------------------------------------------------------------------===//
// Gap buckets
//===----------------------------------------------------------------------===//

TEST(GapBuckets, MonotonicWithBoundedError) {
  uint32_t Last = 0;
  for (uint64_t Ns = 1; Ns < (uint64_t(1) << 40); Ns = Ns * 7 / 4 + 1) {
    uint32_t Bucket = obs::selfprof::gapBucketOf(Ns);
    EXPECT_GE(Bucket, Last) << Ns; // monotone
    Last = std::max(Last, Bucket);
    uint64_t Rep = obs::selfprof::gapBucketRepresentativeNs(Bucket);
    // 2 mantissa bits: the representative midpoint is within ~19% of any
    // value in the bucket.
    double Err = std::abs(static_cast<double>(Rep) - static_cast<double>(Ns)) /
                 static_cast<double>(Ns);
    EXPECT_LE(Err, 0.20) << "ns " << Ns << " rep " << Rep;
  }
  // Tiny gaps are exact.
  for (uint64_t Ns = 1; Ns < 4; ++Ns)
    EXPECT_EQ(obs::selfprof::gapBucketRepresentativeNs(
                  obs::selfprof::gapBucketOf(Ns)),
              Ns);
}

//===----------------------------------------------------------------------===//
// adaptSpanRecords on scripted record streams
//===----------------------------------------------------------------------===//

obs::TraceRecord record(obs::TraceRecord::Kind K, const char *Name,
                        uint64_t TsNs) {
  obs::TraceRecord R;
  R.K = K;
  R.TsNs = TsNs;
  std::snprintf(R.Name, sizeof(R.Name), "%s", Name);
  R.ArgName[0] = '\0';
  return R;
}

using Kind = obs::TraceRecord::Kind;

/// Index of \p Path in the stream's function table, or -1.
int functionOf(const obs::SpanEventStream &Stream, const std::string &Path) {
  for (size_t I = 0; I < Stream.FunctionPaths.size(); ++I)
    if (Stream.FunctionPaths[I] == Path)
      return static_cast<int>(I);
  return -1;
}

TEST(AdaptSpanRecords, SimpleNestLowersToWellFormedTrace) {
  std::vector<std::vector<obs::TraceRecord>> PerThread(1);
  PerThread[0] = {
      record(Kind::Begin, "compact", 1'000'000),
      record(Kind::Begin, "partition", 1'100'000),
      record(Kind::End, "", 1'200'000),
      record(Kind::Begin, "dbb", 1'300'000),
      record(Kind::End, "", 1'500'000),
      record(Kind::End, "", 1'600'000),
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);

  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.Stats.Spans, 3u);
  EXPECT_EQ(Stream.Stats.TruncatedSpans, 0u);
  EXPECT_EQ(Stream.Stats.UnclosedSpans, 0u);
  EXPECT_EQ(Stream.Trace.callCount(), 3u);

  // Nested paths became distinct functions.
  EXPECT_GE(functionOf(Stream, "compact"), 0);
  EXPECT_GE(functionOf(Stream, "compact/partition"), 0);
  EXPECT_GE(functionOf(Stream, "compact/dbb"), 0);
  EXPECT_EQ(functionOf(Stream, "partition"), -1) << "leaf not pathified";

  // Every Enter is immediately followed by the call-marker block.
  const auto &Events = Stream.Trace.Events;
  for (size_t I = 0; I < Events.size(); ++I)
    if (Events[I].EventKind == TraceEvent::Kind::Enter) {
      ASSERT_LT(I + 1, Events.size());
      EXPECT_EQ(Events[I + 1].EventKind, TraceEvent::Kind::Block);
      EXPECT_EQ(Events[I + 1].Id, obs::selfprof::CallMarkerBlock);
    }

  // compact's exclusive time: gaps 100us (before partition), 100us
  // (between children) and 100us (after dbb) — three gap blocks, each
  // with a representative near 100us.
  std::map<BlockId, uint64_t> GapNs(Stream.GapBlocks.begin(),
                                    Stream.GapBlocks.end());
  uint64_t CompactGaps = 0;
  int Depth = 0;
  for (const TraceEvent &E : Events) {
    if (E.EventKind == TraceEvent::Kind::Enter)
      ++Depth;
    else if (E.EventKind == TraceEvent::Kind::Exit)
      --Depth;
    else if (Depth == 1 && E.Id != obs::selfprof::CallMarkerBlock) {
      ASSERT_TRUE(GapNs.count(E.Id));
      CompactGaps += GapNs[E.Id];
    }
  }
  EXPECT_NEAR(static_cast<double>(CompactGaps), 300'000.0, 60'000.0);
}

TEST(AdaptSpanRecords, ShortGapsAreNotEncoded) {
  std::vector<std::vector<obs::TraceRecord>> PerThread(1);
  PerThread[0] = {
      record(Kind::Begin, "a", 1000),
      record(Kind::End, "", 1400), // 400ns span, below MinGapNs=1024
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);
  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_TRUE(Stream.GapBlocks.empty());
  // The call marker still makes the span's path trace non-empty.
  EXPECT_EQ(Stream.Trace.blockEventCount(), 1u);
}

TEST(AdaptSpanRecords, TruncatedAndUnclosedSpansDegradeGracefully) {
  std::vector<std::vector<obs::TraceRecord>> PerThread(1);
  PerThread[0] = {
      record(Kind::End, "", 500), // orphan E: its B was overwritten
      record(Kind::Begin, "outer", 1000),
      record(Kind::Begin, "inner", 2000),
      record(Kind::End, "", 3000),
      // outer never closes: synthesized shut at the last timestamp.
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);
  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.Stats.TruncatedSpans, 1u);
  EXPECT_EQ(Stream.Stats.UnclosedSpans, 1u);
  EXPECT_EQ(Stream.Stats.Spans, 2u);
  EXPECT_GE(functionOf(Stream, "outer"), 0);
  EXPECT_GE(functionOf(Stream, "outer/inner"), 0);
}

TEST(AdaptSpanRecords, WorkerRootsBecomeTopLevelRoots) {
  // Thread 0 runs compact/dbb; threads 1 and 2 each run one pool slice.
  // Every thread's root spans are roots of the profile, in begin order.
  std::vector<std::vector<obs::TraceRecord>> PerThread(3);
  PerThread[0] = {
      record(Kind::Begin, "compact", 1000),
      record(Kind::Begin, "dbb", 2000),
      record(Kind::End, "", 9000),
      record(Kind::End, "", 9500),
  };
  PerThread[1] = {
      record(Kind::Begin, "pool", 3000),
      record(Kind::Begin, "dbb_function", 3100),
      record(Kind::End, "", 4000),
      record(Kind::End, "", 4100),
  };
  PerThread[2] = {
      record(Kind::Begin, "pool", 3500),
      record(Kind::End, "", 4600),
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);

  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.FunctionPaths,
            (std::vector<std::string>{"compact", "compact/dbb", "pool",
                                      "pool/dbb_function"}));
  EXPECT_EQ(Stream.Stats.Spans, 5u); // compact, dbb, 2x pool, dbb_function
  EXPECT_EQ(Stream.Trace.callCount(), 5u);
}

TEST(AdaptSpanRecords, MainStreamSurvivesLosingTidZeroToPollerThread) {
  // Ring indices are creation order, not "main first": a background
  // metrics poller can push a counter before main's first span and
  // claim tid 0. Main's spans must still root at top level, and the
  // poller's counter-only stream adds no span.
  std::vector<std::vector<obs::TraceRecord>> PerThread(3);
  PerThread[0] = {
      record(Kind::Counter, "mem.rss_bytes", 500),
      record(Kind::Counter, "mem.rss_bytes", 5000),
  };
  PerThread[1] = {
      record(Kind::Begin, "compact", 1000),
      record(Kind::End, "", 9000),
      record(Kind::Begin, "archive_encode", 9100),
      record(Kind::End, "", 9900),
  };
  PerThread[2] = {
      record(Kind::Begin, "pool", 2000),
      record(Kind::End, "", 3000),
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);

  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.FunctionPaths,
            (std::vector<std::string>{"compact", "pool", "archive_encode"}));
  EXPECT_EQ(Stream.Stats.Spans, 3u);
}

TEST(AdaptSpanRecords, RegistryOverflowCountsButStaysWellFormed) {
  std::vector<std::vector<obs::TraceRecord>> PerThread(1);
  uint64_t Ts = 1000;
  for (int I = 0; I < 12; ++I) {
    std::string Name = "s";
    Name += std::to_string(I);
    PerThread[0].push_back(record(Kind::Begin, Name.c_str(), Ts++));
    PerThread[0].push_back(record(Kind::End, "", Ts++));
  }
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);
  EXPECT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.Stats.Spans, 12u);
  EXPECT_EQ(Stream.Trace.callCount(), 12u);
  // Every path gets its own id: dense from 0, in first-seen order.
  ASSERT_EQ(Stream.FunctionPaths.size(), 12u);
  EXPECT_EQ(Stream.Stats.Functions, 12u);
  EXPECT_EQ(Stream.Trace.FunctionCount, 12u);
  for (int I = 0; I < 12; ++I)
    EXPECT_EQ(Stream.FunctionPaths[I], "s" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// Wraparound property: any per-thread suffix of a valid record stream
// (what survives a ring overwrite) still lowers to a well-formed trace.
//===----------------------------------------------------------------------===//

TEST(AdaptSpanRecords, AnySuffixOfStreamStaysWellFormedProperty) {
  // A deterministic, deeply nested two-thread script.
  std::vector<obs::TraceRecord> Main, Worker;
  uint64_t Ts = 1000;
  for (int Outer = 0; Outer < 4; ++Outer) {
    Main.push_back(record(Kind::Begin, "compact", Ts += 100));
    for (int Inner = 0; Inner < 3; ++Inner) {
      Main.push_back(record(Kind::Begin, "dbb", Ts += 100));
      Worker.push_back(record(Kind::Begin, "pool", Ts += 60));
      Worker.push_back(record(Kind::Begin, "work", Ts += 100));
      Worker.push_back(record(Kind::End, "", Ts += 2000));
      Worker.push_back(record(Kind::End, "", Ts += 100));
      Main.push_back(record(Kind::End, "", Ts += 100));
    }
    Main.push_back(record(Kind::End, "", Ts += 100));
  }

  for (size_t DropMain = 0; DropMain <= Main.size(); DropMain += 3)
    for (size_t DropWorker = 0; DropWorker <= Worker.size();
         DropWorker += 2) {
      std::vector<std::vector<obs::TraceRecord>> PerThread(2);
      PerThread[0].assign(Main.begin() + DropMain, Main.end());
      PerThread[1].assign(Worker.begin() + DropWorker, Worker.end());
          obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);
      ASSERT_TRUE(Stream.Trace.isWellFormed())
          << "drop main " << DropMain << " worker " << DropWorker;
      // Whatever survived still compacts and verifies: the full paranoid
      // pipeline check on every truncation combination would be slow, so
      // structural well-formedness is the property here and the full
      // pipeline runs once below.
    }
}

TEST(AdaptSpanRecords, TruncatedStreamSurvivesFullPipeline) {
  std::vector<std::vector<obs::TraceRecord>> PerThread(1);
  // Start mid-stream: two orphan Es, then a normal forest.
  PerThread[0] = {
      record(Kind::End, "", 100),
      record(Kind::End, "", 200),
      record(Kind::Begin, "compact", 1000),
      record(Kind::Begin, "partition", 2000),
      record(Kind::End, "", 52'000),
      record(Kind::Begin, "dbb", 60'000),
      record(Kind::End, "", 160'000),
      record(Kind::End, "", 170'000),
  };
  obs::SpanEventStream Stream = obs::adaptSpanRecords(PerThread);
  ASSERT_TRUE(Stream.Trace.isWellFormed());
  EXPECT_EQ(Stream.Stats.TruncatedSpans, 2u);

  TwppWpp Compacted = compactWpp(Stream.Trace);
  EXPECT_EQ(reconstructRawTrace(Compacted), Stream.Trace);
}

//===----------------------------------------------------------------------===//
// Sidecar round trip
//===----------------------------------------------------------------------===//

TEST(SelfProfileMeta, EncodeDecodeRoundTrips) {
  obs::SelfProfileMeta Meta;
  Meta.MinGapNs = 2048;
  Meta.FunctionPaths = {"compact", "compact/dbb"};
  Meta.GapBlocks = {{2, 1536}, {7, 40'000}};
  Meta.Stats.Spans = 42;
  Meta.Stats.Events = 99;
  Meta.Stats.RecordsDropped = 3;
  Meta.Stats.TraceJsonBytes = 123'456;

  std::string Text = obs::encodeSelfProfileMeta(Meta);
  obs::SelfProfileMeta Back;
  ASSERT_TRUE(obs::decodeSelfProfileMeta(Text, Back));
  EXPECT_EQ(Back.MinGapNs, Meta.MinGapNs);
  EXPECT_EQ(Back.FunctionPaths, Meta.FunctionPaths);
  EXPECT_EQ(Back.GapBlocks, Meta.GapBlocks);
  EXPECT_EQ(Back.Stats.Spans, 42u);
  EXPECT_EQ(Back.Stats.Events, 99u);
  EXPECT_EQ(Back.Stats.RecordsDropped, 3u);
  EXPECT_EQ(Back.Stats.TraceJsonBytes, 123'456u);
}

TEST(SelfProfileMeta, DecodeSkipsUnknownStats) {
  // A reader skips any stat it does not know, such as one an older
  // profiler wrote and the current one no longer does.
  obs::SelfProfileMeta Meta;
  ASSERT_TRUE(obs::decodeSelfProfileMeta("twpp-selfprof-meta-v1\n"
                                         "mingap 1024\n"
                                         "fn 0 compact\n"
                                         "stat spans 5\n"
                                         "stat retired_stat 0\n"
                                         "stat functions 1\n",
                                         Meta));
  EXPECT_EQ(Meta.FunctionPaths, std::vector<std::string>{"compact"});
  EXPECT_EQ(Meta.Stats.Spans, 5u);
  EXPECT_EQ(Meta.Stats.Functions, 1u);
}

TEST(SelfProfileMeta, DecodeRejectsGarbage) {
  obs::SelfProfileMeta Meta;
  EXPECT_FALSE(obs::decodeSelfProfileMeta("", Meta));
  EXPECT_FALSE(obs::decodeSelfProfileMeta("not-a-sidecar\n", Meta));
  EXPECT_FALSE(
      obs::decodeSelfProfileMeta("twpp-selfprof-meta-v1\nbogus tag\n", Meta));
}

//===----------------------------------------------------------------------===//
// End to end: profile real PhaseSpans (through parallelFor), write the
// archive, verify it with the production verifier, read it back.
//===----------------------------------------------------------------------===//

class SelfProfilerEndToEnd : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setTracingEnabled(false);
    obs::traceRecorder().reset();
  }
  void TearDown() override {
    obs::setTracingEnabled(false);
    obs::traceRecorder().reset();
    std::remove(Archive.c_str());
    std::remove((Archive + ".meta").c_str());
  }
  std::string Archive = testing::TempDir() + "selfprof_e2e.twppa";
};

TEST_F(SelfProfilerEndToEnd, ArchiveVerifiesCleanAndMatchesSidecar) {
  obs::SelfProfiler Profiler({Archive, /*CompareTraceJson=*/true});
  ASSERT_TRUE(obs::tracingEnabled()) << "a profiler turns the recorder on";

  {
    obs::PhaseSpan Outer("compact");
    {
      obs::PhaseSpan Stage("partition");
    }
    {
      obs::PhaseSpan Stage("dbb");
      parallelFor(ParallelConfig::withJobs(2), 6,
                  [](size_t) { obs::PhaseSpan Work("dbb_function"); });
    }
  }
  Profiler.drain();

  obs::SelfProfileStats Stats;
  std::string Error;
  ASSERT_TRUE(Profiler.finish(Stats, &Error)) << Error;
  EXPECT_FALSE(Profiler.finish(Stats, &Error)) << "finish runs once";
  EXPECT_FALSE(obs::tracingEnabled()) << "finish restores the prior flag";

  // compact, partition, dbb, 2x pool (one per worker), 6x dbb_function
  EXPECT_GE(Stats.Spans, 11u);
  EXPECT_GT(Stats.Events, Stats.Spans);
  EXPECT_GT(Stats.Functions, 0u);
  EXPECT_GT(Stats.ArchiveBytes, 0u);
  EXPECT_GT(Stats.TraceJsonBytes, 0u);

  // The archive is a standard .twppa: the production verifier must pass
  // it with zero diagnostics of any severity.
  verify::DiagnosticEngine Engine;
  EXPECT_TRUE(verify::verifyArchiveFile(Archive, Engine));
  EXPECT_EQ(Engine.diagnostics().size(), 0u);

  // Sidecar agrees with the archive's function table.
  obs::SelfProfileMeta Meta;
  ASSERT_TRUE(obs::readSelfProfileMetaFile(Archive + ".meta", Meta));
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Archive));
  TwppWpp Wpp;
  ASSERT_TRUE(Reader.readAll(Wpp));
  EXPECT_EQ(Meta.FunctionPaths.size(), Wpp.Functions.size());
  EXPECT_EQ(Meta.Stats.Spans, Stats.Spans);

  // Each worker's spans are roots of their own.
  EXPECT_NE(std::find(Meta.FunctionPaths.begin(), Meta.FunctionPaths.end(),
                      "pool/dbb_function"),
            Meta.FunctionPaths.end());
}

TEST_F(SelfProfilerEndToEnd, DrainSurvivesRingWraparound) {
  obs::traceRecorder().setRingCapacity(64);
  obs::traceRecorder().reset();
  obs::SelfProfiler Profiler({Archive});

  // Push far more spans than the ring holds, draining rarely enough
  // that overwrites happen between drains.
  for (int Round = 0; Round < 8; ++Round) {
    for (int I = 0; I < 100; ++I) {
      obs::PhaseSpan Span("spin");
    }
    Profiler.drain();
  }

  obs::SelfProfileStats Stats;
  std::string Error;
  ASSERT_TRUE(Profiler.finish(Stats, &Error)) << Error;
  EXPECT_GT(Stats.RecordsDropped, 0u) << "test must actually wrap";
  EXPECT_GT(Stats.Spans, 0u);

  verify::DiagnosticEngine Engine;
  EXPECT_TRUE(verify::verifyArchiveFile(Archive, Engine));
  EXPECT_EQ(Engine.errorCount(), 0u)
      << "wraparound must degrade into counters, not a corrupt archive";

  obs::traceRecorder().setRingCapacity(
      obs::TraceRecorder::DefaultRingCapacity);
  obs::traceRecorder().reset();
}

} // namespace
