//===- tests/IngestServerTest.cpp - Ingestion frontend contract ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The degrade-never-abort contract, end to end: a clean multi-producer
// run produces archives byte-identical to an in-process compaction of
// the same traces; every injected failure (wire damage, duplicates,
// reordering, stalls, vanished producers, idle connections, tiny queues,
// memory pressure, a crash between checkpoints) ends in a returned
// report whose counters account for exactly what was lost — never a
// crash, a hang, or a silent drop.
//
//===----------------------------------------------------------------------===//

#include "ingest/Ingest.h"
#include "ingest/Wire.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include "gtest/gtest.h"

#include <chrono>
#include <thread>

#if !defined(_WIN32)
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace twpp;
using namespace twpp::ingest;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// A sizable, deterministic trace (~3000 events): fixtures::randomTrace's
/// random walk can end after a handful of events, which would leave the
/// chaos specs' every=N triggers unreached. Frame counts matter here.
RawTrace sizableTrace(uint64_t Seed) {
  RawTrace Trace;
  Trace.FunctionCount = 8;
  for (uint64_t Call = 0; Call < 600; ++Call) {
    Trace.Events.push_back(
        TraceEvent::enter(static_cast<uint32_t>((Seed + Call) % 8)));
    for (uint64_t B = 0; B < 1 + (Seed + Call) % 4; ++B)
      Trace.Events.push_back(
          TraceEvent::block(static_cast<uint32_t>(1 + (Call + B) % 12)));
    Trace.Events.push_back(TraceEvent::exit());
  }
  return Trace;
}

std::vector<RawTrace> sampleTraces(size_t Count) {
  std::vector<RawTrace> Traces;
  for (size_t I = 0; I < Count; ++I)
    Traces.push_back(sizableTrace(1000 + I * 17));
  return Traces;
}

/// The golden bytes the contract compares against: the batch pipeline
/// over the same trace, encoded the same way the server encodes.
std::vector<uint8_t> goldenArchiveBytes(const RawTrace &Trace) {
  return encodeArchive(compactWpp(Trace));
}

std::vector<uint8_t> readAll(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes).ok()) << Path;
  return Bytes;
}

/// Every producer that completed its handshake must account for every
/// declared event: applied + structurally dropped + lost == declared.
void expectAccountingIdentity(const IngestReport &Report) {
  for (const ProducerReport &P : Report.Producers) {
    if (P.SawBye) {
      EXPECT_EQ(P.EventsApplied + P.EventsDropped + P.eventsLost(),
                P.EventsDeclared)
          << "producer " << P.ProducerId;
    }
  }
}

TEST(IngestServerTest, LoopbackMatchesDirectCompactionByteForByte) {
  std::vector<RawTrace> Traces = sampleTraces(3);
  IngestConfig Config;
  Config.OutPrefix = tempPath("loopback");
  IngestReport Report = runLoopbackIngest(Config, Traces);

  ASSERT_TRUE(Report.clean()) << Report.FatalError;
  ASSERT_EQ(Report.Producers.size(), Traces.size());
  for (size_t I = 0; I < Traces.size(); ++I) {
    const ProducerReport &P = Report.Producers[I];
    EXPECT_EQ(P.ProducerId, static_cast<uint32_t>(I));
    EXPECT_EQ(P.EventsApplied, Traces[I].Events.size());
    EXPECT_EQ(readAll(P.ArchivePath), goldenArchiveBytes(Traces[I]))
        << "producer " << I;
  }
  EXPECT_EQ(Report.CorruptFrames, 0u);
  EXPECT_EQ(Report.ResyncBytes, 0u);
}

TEST(IngestServerTest, TinyQueueUnderBlockPolicyStaysLossless) {
  // Capacity 1 forces constant reader/dispatcher handoff; Block means
  // the producers slow down instead of losing anything.
  std::vector<RawTrace> Traces = sampleTraces(2);
  IngestConfig Config;
  Config.QueueCapacity = 1;
  Config.Policy = BackpressurePolicy::Block;
  ProducerOptions Small;
  Small.BatchEvents = 64; // many frames -> many queue handoffs
  IngestReport Report = runLoopbackIngest(Config, Traces, Small);

  ASSERT_TRUE(Report.clean());
  for (size_t I = 0; I < Traces.size(); ++I)
    EXPECT_EQ(Report.Producers[I].EventsApplied, Traces[I].Events.size());
}

TEST(IngestServerTest, ShedPolicyNeverHangsAndAccountsEveryDrop) {
  // Capacity 1 + a journal fsync per frame makes the dispatcher far
  // slower than the readers: overflow is near-certain. Whether or not
  // sheds actually happen on this machine, the run must terminate and
  // the books must balance.
  std::vector<RawTrace> Traces = sampleTraces(2);
  IngestConfig Config;
  Config.QueueCapacity = 1;
  Config.Policy = BackpressurePolicy::Shed;
  Config.JournalPrefix = tempPath("shed");
  Config.CheckpointIntervalFrames = 1;
  ProducerOptions Small;
  Small.BatchEvents = 64;
  IngestReport Report = runLoopbackIngest(Config, Traces, Small);

  EXPECT_TRUE(Report.FatalError.empty());
  expectAccountingIdentity(Report);
  for (const ProducerReport &P : Report.Producers) {
    if (P.ShedFrames > 0) {
      EXPECT_FALSE(P.lossless());
      EXPECT_GT(P.ShedBytes, 0u);
    }
    EXPECT_FALSE(Report.clean() && P.ShedFrames > 0);
  }
}

struct ChaosCase {
  const char *Name;
  const char *Spec;
  bool Lossy; ///< Whether the fault can cost events (vs only latency).
};

TEST(IngestServerTest, ChaosSweepNeverCrashesHangsOrSilentlyDrops) {
  const ChaosCase Cases[] = {
      {"corrupt", "wire:corrupt:every=7", true},
      {"truncate", "wire:truncate:every=9", true},
      {"duplicate", "wire:duplicate:every=5", false},
      {"reorder", "wire:reorder:every=4", false},
      {"stall", "wire:stall:every=11", false},
  };
  std::vector<RawTrace> Traces = sampleTraces(2);
  ProducerOptions Fast;
  Fast.BatchEvents = 128; // enough frames for every spec to fire
  Fast.StallMs = 1;

  for (const ChaosCase &Case : Cases) {
    fault::ScopedFaultSpec Armed(Case.Spec);
    IngestConfig Config;
    Config.OutPrefix = tempPath(std::string("chaos_") + Case.Name);
    IngestReport Report = runLoopbackIngest(Config, Traces, Fast);

    EXPECT_TRUE(Report.FatalError.empty()) << Case.Name;
    expectAccountingIdentity(Report);

    if (!Case.Lossy) {
      // Duplicates, reordering and stalls are absorbed: the run is
      // clean and the archives match the golden bytes exactly.
      EXPECT_TRUE(Report.clean()) << Case.Name;
      for (size_t I = 0; I < Traces.size(); ++I)
        EXPECT_EQ(readAll(Report.Producers[I].ArchivePath),
                  goldenArchiveBytes(Traces[I]))
            << Case.Name << " producer " << I;
    } else {
      // Damage was injected every Nth frame, so some was certainly hit;
      // the run must say so — corrupt frames counted, losses accounted,
      // clean() false. Nothing vanishes silently.
      EXPECT_GT(Report.CorruptFrames, 0u) << Case.Name;
      EXPECT_FALSE(Report.clean()) << Case.Name;
      uint64_t Accounted = 0;
      for (const ProducerReport &P : Report.Producers)
        Accounted += P.eventsLost() + P.EventsDropped;
      EXPECT_GT(Accounted, 0u) << Case.Name;
    }
  }

  // Sanity: the sweep must not leak an armed spec into later tests.
  EXPECT_EQ(fault::activeFaultSpec(), "");
}

/// Every count of \p Report and of each producer in it, one line each.
std::string describeCounts(const IngestReport &Report) {
  std::string Out = "frames " + std::to_string(Report.Frames) + " corrupt " +
                    std::to_string(Report.CorruptFrames) + " resync " +
                    std::to_string(Report.ResyncBytes) + "\n";
  for (const ProducerReport &P : Report.Producers) {
    for (uint64_t V :
         {uint64_t(P.ProducerId), uint64_t(P.SawHello), uint64_t(P.SawBye),
          uint64_t(P.Disconnected), P.FramesApplied, P.EventsApplied,
          P.EventsDropped, P.EventsDeclared, P.FramesInvalid,
          P.FramesDuplicate, P.FramesReordered, P.SeqGaps, P.ShedFrames,
          P.SynthesizedExits, P.DegradedFrames, P.eventsLost()})
      Out += std::to_string(V) + " ";
    Out += "\n";
  }
  return Out;
}

TEST(IngestServerTest, WireChaosIsReproducibleFromItsSpec) {
  // Each producer counts its own wire hits, so the same spec damages the
  // same frames of every producer on every run, however the four
  // producer threads interleave.
  std::vector<RawTrace> Traces = sampleTraces(4);
  ProducerOptions Fast;
  Fast.BatchEvents = 128;
  fault::ScopedFaultSpec Armed("wire:corrupt:every=7");
  IngestReport First = runLoopbackIngest(IngestConfig(), Traces, Fast);
  IngestReport Second = runLoopbackIngest(IngestConfig(), Traces, Fast);
  ASSERT_EQ(First.Producers.size(), 4u);
  EXPECT_GT(First.CorruptFrames, 0u);
  EXPECT_EQ(describeCounts(First), describeCounts(Second));
}

TEST(IngestServerTest, DuplicateAndReorderCountersFire) {
  std::vector<RawTrace> Traces = sampleTraces(1);
  ProducerOptions Fast;
  Fast.BatchEvents = 128;
  {
    fault::ScopedFaultSpec Armed("wire:duplicate:every=5");
    IngestConfig Config;
    IngestReport Report = runLoopbackIngest(Config, Traces, Fast);
    ASSERT_TRUE(Report.clean());
    EXPECT_GT(Report.Producers[0].FramesDuplicate, 0u);
  }
  {
    fault::ScopedFaultSpec Armed("wire:reorder:every=4");
    IngestConfig Config;
    IngestReport Report = runLoopbackIngest(Config, Traces, Fast);
    ASSERT_TRUE(Report.clean());
    EXPECT_GT(Report.Producers[0].FramesReordered, 0u);
  }
}

#if !defined(_WIN32)

/// Sends raw bytes over a socketpair to one IngestServer connection and
/// returns the report. \p Frames is written in one piece, then the
/// producer half closes.
IngestReport ingestRawBytes(const IngestConfig &Config,
                            const std::vector<uint8_t> &Bytes) {
  IngestServer Server(Config);
  int Sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  Server.addConnection(Sv[0]);
  std::thread Producer([&] {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Sv[1], Bytes.data() + Off, Bytes.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Sv[1]);
  });
  IngestReport Report = Server.run();
  Producer.join();
  return Report;
}

TEST(IngestServerTest, DisconnectWithoutByeSynthesizesExitsAndReports) {
  // Hello + one unbalanced Events batch (Enter never exited), then the
  // producer vanishes. The server must balance the stream itself, write
  // a decodable archive, and mark the producer unclean.
  std::vector<TraceEvent> Events = {TraceEvent::enter(2),
                                    TraceEvent::block(1),
                                    TraceEvent::enter(4),
                                    TraceEvent::block(2)};
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 0, 0, encodeHelloPayload(8));
  appendWireFrame(Bytes, 0, 1,
                  encodeEventsPayload(Events.data(),
                                      Events.data() + Events.size()));
  // no Bye

  IngestConfig Config;
  Config.OutPrefix = tempPath("disconnect");
  IngestReport Report = ingestRawBytes(Config, Bytes);

  ASSERT_EQ(Report.Producers.size(), 1u);
  const ProducerReport &P = Report.Producers[0];
  EXPECT_TRUE(P.SawHello);
  EXPECT_FALSE(P.SawBye);
  EXPECT_TRUE(P.Disconnected);
  EXPECT_EQ(P.SynthesizedExits, 2u); // both open calls closed for us
  EXPECT_FALSE(Report.clean());

  // The archive still decodes: degradation, not destruction.
  TwppWpp Wpp;
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(P.ArchivePath));
  EXPECT_TRUE(Reader.readAll(Wpp));
}

TEST(IngestServerTest, IdleConnectionTimesOutInsteadOfHangingForever) {
  IngestConfig Config;
  Config.IdleTimeoutMs = 50;
  IngestServer Server(Config);
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  Server.addConnection(Sv[0]);

  std::thread Producer([&] {
    std::vector<uint8_t> Bytes;
    appendWireFrame(Bytes, 0, 0, encodeHelloPayload(4));
    ::send(Sv[1], Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
    // ...and then nothing, with the fd deliberately held open far past
    // the idle cutoff.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ::close(Sv[1]);
  });
  auto Start = std::chrono::steady_clock::now();
  IngestReport Report = Server.run();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  Producer.join();

  EXPECT_GE(Report.IdleTimeouts, 1u);
  EXPECT_FALSE(Report.clean());
  ASSERT_EQ(Report.Producers.size(), 1u);
  EXPECT_TRUE(Report.Producers[0].Disconnected);
  // The server gave up at the timeout, not at the producer's leisure.
  EXPECT_LT(ElapsedMs, 350);
}

TEST(IngestServerTest, CrashBetweenCheckpointsResumesByteIdentical) {
  std::vector<RawTrace> Traces = sampleTraces(2);

  // The golden run: no journal, no crash.
  std::vector<std::vector<uint8_t>> Golden;
  for (const RawTrace &Trace : Traces)
    Golden.push_back(goldenArchiveBytes(Trace));

  IngestConfig Config;
  Config.OutPrefix = tempPath("crashrun");
  Config.JournalPrefix = tempPath("crashrun");
  Config.CheckpointIntervalFrames = 4;
  ProducerOptions Small;
  Small.BatchEvents = 64;

  // Run 1: "crash" after the 3rd checkpoint. The in-process hook just
  // returns, which stops ingestion without finalizing — the same state
  // a SIGKILL leaves on disk (journals flushed, no archives).
  {
    IngestConfig CrashConfig = Config;
    CrashConfig.CrashAfterCheckpoints = 3;
    CrashConfig.CrashHook = [] {};
    IngestServer Server(CrashConfig);
    std::vector<std::thread> Producers;
    std::vector<int> Fds;
    for (size_t I = 0; I < Traces.size(); ++I) {
      int Sv[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
      Server.addConnection(Sv[0]);
      Fds.push_back(Sv[1]);
    }
    for (size_t I = 0; I < Traces.size(); ++I) {
      ProducerOptions PO = Small;
      PO.ProducerId = static_cast<uint32_t>(I);
      int Fd = Fds[I];
      const RawTrace *Trace = &Traces[I];
      Producers.emplace_back([Fd, Trace, PO] {
        sendTraceOverFd(Fd, *Trace, PO); // EPIPE after the crash is fine
        ::close(Fd);
      });
    }
    IngestReport Report = Server.run();
    for (std::thread &T : Producers)
      T.join();
    EXPECT_TRUE(Report.Aborted);
    EXPECT_FALSE(Report.clean());
  }

  // Run 2: resume from the journals; producers re-send from scratch.
  {
    IngestConfig ResumeConfig = Config;
    ResumeConfig.Resume = true;
    IngestReport Report =
        runLoopbackIngest(ResumeConfig, Traces, Small);
    ASSERT_TRUE(Report.clean()) << Report.FatalError;
    uint64_t Replayed = 0;
    for (size_t I = 0; I < Traces.size(); ++I) {
      const ProducerReport &P = Report.Producers[I];
      Replayed += P.FramesReplayed;
      EXPECT_EQ(readAll(P.ArchivePath), Golden[I]) << "producer " << I;
    }
    // At least one producer was past a checkpoint when the crash hit,
    // so the re-sent prefix must have been recognized and skipped.
    EXPECT_GT(Replayed, 0u);
  }
}

#endif // !defined(_WIN32)

TEST(IngestServerTest, MemoryBudgetDegradesDetailInsteadOfAborting) {
  // Deep nesting with block detail in every open frame: a tiny budget
  // must shed detail (counted), not abort or reject events.
  RawTrace Trace;
  Trace.FunctionCount = 64;
  const int Depth = 60;
  for (int I = 0; I < Depth; ++I) {
    Trace.Events.push_back(TraceEvent::enter(I % 64));
    for (int B = 0; B < 40; ++B)
      Trace.Events.push_back(TraceEvent::block(B));
  }
  for (int I = 0; I < Depth; ++I)
    Trace.Events.push_back(TraceEvent::exit());

  IngestConfig Config;
  Config.OutPrefix = tempPath("budget");
  Config.MemoryBudgetBytes = 2048;
  IngestReport Report = runLoopbackIngest(Config, {Trace});

  ASSERT_EQ(Report.Producers.size(), 1u);
  const ProducerReport &P = Report.Producers[0];
  EXPECT_EQ(P.EventsApplied, Trace.Events.size());
  EXPECT_GT(P.DegradedFrames, 0u);
  EXPECT_FALSE(P.lossless());
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(P.ArchiveError.ok());
}

TEST(IngestServerTest, ReportsAreSortedAndTotalled) {
  std::vector<RawTrace> Traces = sampleTraces(4);
  IngestConfig Config;
  IngestReport Report = runLoopbackIngest(Config, Traces);
  ASSERT_EQ(Report.Producers.size(), 4u);
  uint64_t Events = 0;
  for (size_t I = 0; I < Report.Producers.size(); ++I) {
    EXPECT_EQ(Report.Producers[I].ProducerId, static_cast<uint32_t>(I));
    Events += Report.Producers[I].EventsApplied;
  }
  EXPECT_EQ(Report.EventsApplied, Events);
  EXPECT_GT(Report.Frames, 0u);
  EXPECT_GT(Report.ElapsedUs, 0.0);
}

} // namespace
