//===- tests/FaultInjectionTest.cpp - fault seam + durable IO -------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection seam (support/FaultInjection.h) and the failure
/// paths it exists to exercise: typed IO errors, atomic-write retries
/// and rollback, journal degradation, and the salvage tool's allocation
/// hardening. Every test installs its own spec via ScopedFaultSpec, so
/// the suite is deterministic even under a CI-wide TWPP_FAULT sweep.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "verify/Checks.h"
#include "verify/Recover.h"
#include "wpp/Archive.h"
#include "wpp/Streaming.h"

#include "TestTraces.h"

#include <cstdio>
#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace twpp;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

TEST(FaultSpec, ParsesValidSpecs) {
  std::vector<fault::FaultRule> Rules;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultSpec("io:write:p=0.25", Rules, Error))
      << Error;
  ASSERT_EQ(Rules.size(), 1u);
  EXPECT_EQ(Rules[0].RuleKind, fault::FaultRule::Kind::Io);
  EXPECT_EQ(Rules[0].Op, "write");
  EXPECT_DOUBLE_EQ(Rules[0].P, 0.25);

  Rules.clear();
  ASSERT_TRUE(fault::parseFaultSpec(
      "io:write:p=0.01,alloc:n=500,io:rename:every=3:seed=9", Rules, Error))
      << Error;
  ASSERT_EQ(Rules.size(), 3u);
  EXPECT_EQ(Rules[1].RuleKind, fault::FaultRule::Kind::Alloc);
  EXPECT_EQ(Rules[1].Nth, 500u);
  EXPECT_EQ(Rules[2].Op, "rename");
  EXPECT_EQ(Rules[2].Every, 3u);
  EXPECT_EQ(Rules[2].Seed, 9u);

  Rules.clear();
  ASSERT_TRUE(fault::parseFaultSpec("io:*:n=1", Rules, Error)) << Error;
  EXPECT_EQ(Rules[0].Op, "*");

  // Empty spec: valid, no rules (injection off).
  Rules.clear();
  EXPECT_TRUE(fault::parseFaultSpec("", Rules, Error));
  EXPECT_TRUE(Rules.empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  std::vector<fault::FaultRule> Rules;
  std::string Error;
  for (const char *Bad :
       {"bogus", "io:frobnicate", "io:write:p=banana", "io:write:p=2",
        "alloc:write", "io:n=", "io:write:wat=1", ",", "io:write:n=0"}) {
    Rules.clear();
    Error.clear();
    EXPECT_FALSE(fault::parseFaultSpec(Bad, Rules, Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  // A bad spec must not replace the active one.
  fault::ScopedFaultSpec Active("io:write:n=1000000");
  EXPECT_FALSE(fault::setFaultSpec("nonsense"));
  EXPECT_EQ(fault::activeFaultSpec(), "io:write:n=1000000");
}

TEST(FaultSpec, ParsesWireRules) {
  std::vector<fault::FaultRule> Rules;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultSpec("wire:corrupt:every=7", Rules, Error))
      << Error;
  ASSERT_EQ(Rules.size(), 1u);
  EXPECT_EQ(Rules[0].RuleKind, fault::FaultRule::Kind::Wire);
  EXPECT_EQ(Rules[0].Op, "corrupt");
  EXPECT_EQ(Rules[0].Every, 7u);

  Rules.clear();
  ASSERT_TRUE(fault::parseFaultSpec("wire:*:p=0.5:seed=3", Rules, Error))
      << Error;
  EXPECT_EQ(Rules[0].Op, "*");
  EXPECT_DOUBLE_EQ(Rules[0].P, 0.5);
  EXPECT_EQ(Rules[0].Seed, 3u);

  // Wire and io rules mix in one spec (the CI chaos sweep does this).
  Rules.clear();
  ASSERT_TRUE(fault::parseFaultSpec(
      "wire:truncate:n=4,io:journal:p=0.01,wire:stall:every=11", Rules,
      Error))
      << Error;
  ASSERT_EQ(Rules.size(), 3u);
  EXPECT_EQ(Rules[0].RuleKind, fault::FaultRule::Kind::Wire);
  EXPECT_EQ(Rules[1].RuleKind, fault::FaultRule::Kind::Io);
  EXPECT_EQ(Rules[2].Op, "stall");
}

TEST(FaultSpec, RejectsBadWireRules) {
  std::vector<fault::FaultRule> Rules;
  std::string Error;
  for (const char *Bad : {
           "wire:frobnicate:n=1", // unknown wire op
           "wire:corrupt",        // no trigger
           "io:corrupt:n=1",      // corrupt is a wire op, not io
           "wire:write:n=1",      // write is an io op, not wire
       }) {
    Rules.clear();
    Error.clear();
    EXPECT_FALSE(fault::parseFaultSpec(Bad, Rules, Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

TEST(FaultSeam, WireOpMatchingIsExactAndClassIsolated) {
  fault::ScopedFaultSpec Spec("wire:corrupt:every=2");
  fault::WireFaultState Producer;
  int CorruptFires = 0, TruncateFires = 0;
  for (int I = 0; I < 10; ++I) {
    if (fault::shouldFaultWire(Producer, "corrupt"))
      ++CorruptFires;
    if (fault::shouldFaultWire(Producer, "truncate"))
      ++TruncateFires;
  }
  EXPECT_EQ(CorruptFires, 5); // every 2nd of 10 matching hits
  EXPECT_EQ(TruncateFires, 0);
  // A wire rule never leaks into the io seam.
  std::string Path = tempPath("wire_isolated.bin");
  EXPECT_TRUE(writeFileBytes(Path, {1, 2, 3}).ok());
  std::remove(Path.c_str());
}

TEST(FaultSeam, WireStarMatchesEveryOp) {
  fault::ScopedFaultSpec Spec("wire:*:n=3");
  fault::WireFaultState Producer;
  EXPECT_FALSE(fault::shouldFaultWire(Producer, "corrupt"));
  EXPECT_FALSE(fault::shouldFaultWire(Producer, "duplicate"));
  EXPECT_TRUE(fault::shouldFaultWire(Producer, "stall")); // 3rd hit, any op
  EXPECT_FALSE(fault::shouldFaultWire(Producer, "stall")); // n= is one-shot
}

TEST(FaultSeam, WireHitsCountPerProducer) {
  fault::ScopedFaultSpec Spec("wire:corrupt:n=2");
  fault::WireFaultState First, Second;
  EXPECT_FALSE(fault::shouldFaultWire(First, "corrupt"));
  EXPECT_FALSE(fault::shouldFaultWire(Second, "corrupt"));
  // Each producer's own second hit fires, however their hits interleave.
  EXPECT_TRUE(fault::shouldFaultWire(Second, "corrupt"));
  EXPECT_TRUE(fault::shouldFaultWire(First, "corrupt"));
  // State made while injection is off holds no rules.
  fault::ScopedFaultSpec Off("");
  fault::WireFaultState Unarmed;
  EXPECT_TRUE(Unarmed.Rules.empty());
}

TEST(FaultSeam, NthFaultFiresOnceAndNamesInjection) {
  fault::ScopedFaultSpec Spec("io:write:n=1");
  std::string Path = tempPath("nth_write.bin");
  uint64_t Before = fault::injectedFaultCount();
  IoError First = writeFileBytes(Path, {1, 2, 3});
  EXPECT_FALSE(First.ok());
  EXPECT_EQ(First.Status, IoStatus::WriteFailed);
  EXPECT_EQ(First.Errno, 0); // injected, not a real syscall failure
  EXPECT_NE(First.message().find("[injected]"), std::string::npos);
  EXPECT_GT(fault::injectedFaultCount(), Before);
  // One-shot: the second write goes through.
  IoError Second = writeFileBytes(Path, {1, 2, 3});
  EXPECT_TRUE(Second.ok()) << Second.message();
  std::remove(Path.c_str());
}

TEST(FaultSeam, SuspendShieldsCurrentThread) {
  fault::ScopedFaultSpec Spec("io:write:every=1");
  std::string Path = tempPath("suspended.bin");
  EXPECT_FALSE(writeFileBytes(Path, {1}).ok());
  {
    fault::ScopedFaultSuspend Shield;
    EXPECT_TRUE(writeFileBytes(Path, {1}).ok());
    {
      fault::ScopedFaultSuspend Nested; // nestable
      EXPECT_TRUE(writeFileBytes(Path, {2}).ok());
    }
    EXPECT_TRUE(writeFileBytes(Path, {3}).ok());
  }
  EXPECT_FALSE(writeFileBytes(Path, {4}).ok());
  std::remove(Path.c_str());
}

TEST(FaultSeam, AtomicWriteRetriesPastTransientFault) {
  // Exactly one injected rename failure: the retry loop must absorb it.
  fault::ScopedFaultSpec Spec("io:rename:n=1");
  std::string Path = tempPath("atomic_retry.bin");
  IoError Result = writeFileBytesAtomic(Path, {7, 7, 7});
  EXPECT_TRUE(Result.ok()) << Result.message();
  std::vector<uint8_t> Back;
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(readFileBytes(Path, Back).ok());
  }
  EXPECT_EQ(Back, (std::vector<uint8_t>{7, 7, 7}));
  std::remove(Path.c_str());
}

TEST(FaultSeam, AtomicWriteFailureKeepsOldContentAndCleansTemp) {
  std::string Path = tempPath("atomic_rollback.bin");
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(writeFileBytes(Path, {1, 2, 3}).ok());
  }
  {
    // Every write attempt fails: the atomic write must give up after its
    // bounded retries, leave the target untouched, and remove the temp.
    fault::ScopedFaultSpec Spec("io:write:every=1");
    IoError Result = writeFileBytesAtomic(Path, {9, 9, 9});
    EXPECT_FALSE(Result.ok());
  }
  fault::ScopedFaultSuspend Shield;
  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back).ok());
  EXPECT_EQ(Back, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(fileSize(Path + ".tmp").has_value())
      << "temp file left behind";
  std::remove(Path.c_str());
}

TEST(FaultSeam, ShortReadAndStatFaultsAreTyped) {
  std::string Path = tempPath("typed_reads.bin");
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(writeFileBytes(Path, {1, 2, 3, 4}).ok());
  }
  {
    fault::ScopedFaultSpec Spec("io:read:every=1");
    std::vector<uint8_t> Bytes;
    IoError Result = readFileBytes(Path, Bytes);
    EXPECT_FALSE(Result.ok());
    EXPECT_TRUE(Bytes.empty()) << "failed read must not leak partial data";
  }
  {
    fault::ScopedFaultSpec Spec("io:stat:every=1");
    EXPECT_FALSE(fileSize(Path).has_value());
  }
  std::remove(Path.c_str());
}

TEST(FaultSeam, JournalFaultsDegradeStreamingNotAbort) {
  RawTrace Trace = fixtures::randomTrace(64, 4, 200);
  std::string Path = tempPath("faulty_journal.twppj");
  fault::ScopedFaultSpec Spec("io:journal:every=2");
  StreamingConfig Config;
  Config.JournalPath = Path;
  Config.CheckpointInterval = 4;
  StreamingCompactor Sink(Trace.FunctionCount, Config);
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
  // Some journal operations failed; the compactor carried on and its
  // output is unaffected.
  EXPECT_FALSE(Sink.lastJournalError().ok());
  while (!Sink.balanced())
    Sink.onExit();
  std::vector<uint8_t> Faulty = encodeArchive(Sink.takeCompacted());
  {
    fault::ScopedFaultSpec Off("");
    StreamingCompactor Clean(Trace.FunctionCount);
    for (const TraceEvent &Event : Trace.Events) {
      switch (Event.EventKind) {
      case TraceEvent::Kind::Enter:
        Clean.onEnter(Event.Id);
        break;
      case TraceEvent::Kind::Block:
        Clean.onBlock(Event.Id);
        break;
      case TraceEvent::Kind::Exit:
        Clean.onExit();
        break;
      }
    }
    while (!Clean.balanced())
      Clean.onExit();
    EXPECT_EQ(Faulty, encodeArchive(Clean.takeCompacted()));
  }
  std::remove(Path.c_str());
}

TEST(FaultSeam, AllocFaultSurfacesAsRecoverDiagnostic) {
  RawTrace Trace = fixtures::randomTrace(2024, 6, 3000);
  std::vector<uint8_t> Bytes = encodeArchive(compactWpp(Trace));
  {
    fault::ScopedFaultSpec Spec("alloc:n=1");
    std::vector<uint8_t> Out;
    recover::SalvageReport Report;
    EXPECT_FALSE(recover::salvageArchive(Bytes, Out, Report));
    bool SawAlloc = false;
    for (const verify::Diagnostic &D : Report.Diagnostics)
      if (D.CheckId == verify::checks::RecoverAlloc)
        SawAlloc = true;
    EXPECT_TRUE(SawAlloc) << recover::renderSalvageReportText(Report);
    EXPECT_TRUE(Out.empty());
  }
  // With the fault gone the same bytes salvage losslessly.
  fault::ScopedFaultSpec Off("");
  std::vector<uint8_t> Out;
  recover::SalvageReport Report;
  EXPECT_TRUE(recover::salvageArchive(Bytes, Out, Report));
  EXPECT_EQ(Out, Bytes);
}

TEST(FaultSeam, ProbabilisticRuleIsDeterministicPerSeed) {
  // p-rules draw from a deterministic PRNG: the same seed must produce
  // the same fail/pass pattern across runs.
  auto Pattern = [](uint64_t Seed) {
    fault::ScopedFaultSpec Spec("io:write:p=0.5:seed=" +
                                std::to_string(Seed));
    std::string Path = tempPath("prob.bin");
    std::vector<bool> Fails;
    for (int I = 0; I < 32; ++I)
      Fails.push_back(!writeFileBytes(Path, {1}).ok());
    std::remove(Path.c_str());
    return Fails;
  };
  EXPECT_EQ(Pattern(7), Pattern(7));
  std::vector<bool> A = Pattern(7);
  size_t Failures = 0;
  for (bool F : A)
    Failures += F;
  EXPECT_GT(Failures, 0u);
  EXPECT_LT(Failures, A.size());
}

} // namespace
