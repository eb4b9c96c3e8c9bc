//===- tests/MemoryTest.cpp - memory observability unit tests --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory observability layer end to end: the allocation tracker
/// primitives (accounts, registry, scopes, gating), the obs::deepSize
/// audit walks, the tracker-vs-deepSize reconcile that twpp-mem-reconcile
/// enforces, the mem.* gauge publication, the RSS poller, and the
/// guarantee that none of it perturbs archive bytes.
///
//===----------------------------------------------------------------------===//

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/Arena.h"
#include "support/FileIO.h"
#include "support/Mmap.h"
#include "verify/Checks.h"
#include "verify/MemoryChecks.h"
#include "wpp/Archive.h"
#include "wpp/DeepSize.h"
#include "wpp/TimestampSet.h"
#include "wpp/Twpp.h"

#include "ReadPaths.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace twpp;
using fixtures::ReadPath;

namespace {

/// Every test runs with tracking on and a zeroed registry; the
/// process-global flag is restored afterwards so binaries sharing the
/// process see their configured state.
class MemoryTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = obs::memTrackingEnabled();
    obs::setMemTrackingEnabled(true);
    obs::memTracker().reset();
  }
  void TearDown() override {
    obs::memTracker().reset();
    obs::setMemTrackingEnabled(WasEnabled);
  }

  bool WasEnabled = false;
};

int64_t liveOf(const char *Tag) {
  return obs::memTracker().account(Tag).liveBytes();
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// A fully compacted WPP from a random trace, the input the archive-level
/// audits run over.
TwppWpp compactedWpp(uint64_t Seed, uint32_t Functions, uint32_t Events) {
  return convertToTwpp(applyDbbCompaction(
      partitionWpp(fixtures::randomTrace(Seed, Functions, Events))));
}

//===----------------------------------------------------------------------===//
// Tracker primitives
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, AccountTracksLivePeakAndCumulative) {
  obs::MemAccount Account;
  Account.recordAlloc(100);
  Account.recordAlloc(50);
  EXPECT_EQ(Account.liveBytes(), 150);
  EXPECT_EQ(Account.peakBytes(), 150);
  Account.recordFree(120);
  EXPECT_EQ(Account.liveBytes(), 30);
  EXPECT_EQ(Account.peakBytes(), 150); // peak survives frees
  Account.recordAlloc(40);
  EXPECT_EQ(Account.liveBytes(), 70);
  EXPECT_EQ(Account.peakBytes(), 150); // 70 never exceeded the old peak
  EXPECT_EQ(Account.cumulativeBytes(), 190u);
  EXPECT_EQ(Account.allocCount(), 3u);
  EXPECT_EQ(Account.freeCount(), 1u);
  Account.reset();
  EXPECT_EQ(Account.liveBytes(), 0);
  EXPECT_EQ(Account.peakBytes(), 0);
  EXPECT_EQ(Account.cumulativeBytes(), 0u);
}

TEST_F(MemoryTest, AccountGoesNegativeOnUnbalancedFrees) {
  // Deliberately unbalanced — this is the signal twpp-mem-negative-live
  // exists to catch, so it must not saturate at zero.
  obs::MemAccount Account;
  Account.recordAlloc(10);
  Account.recordFree(25);
  EXPECT_EQ(Account.liveBytes(), -15);
}

TEST_F(MemoryTest, TrackerReturnsStableAccountsAndSortedSnapshots) {
  obs::MemAccount &A = obs::memTracker().account("zz.tag");
  obs::MemAccount &B = obs::memTracker().account("aa.tag");
  EXPECT_EQ(&A, &obs::memTracker().account("zz.tag"));
  A.recordAlloc(7);
  B.recordAlloc(3);
  std::vector<obs::MemTracker::Snapshot> Snaps =
      obs::memTracker().snapshot();
  ASSERT_GE(Snaps.size(), 2u);
  for (size_t I = 1; I < Snaps.size(); ++I)
    EXPECT_LT(Snaps[I - 1].Tag, Snaps[I].Tag);
  EXPECT_GE(obs::memTracker().totalLiveBytes(), 10);
  EXPECT_GE(obs::memTracker().totalAllocs(), 2u);
  obs::memTracker().reset();
  EXPECT_EQ(A.liveBytes(), 0); // reset zeroes in place, refs stay valid
}

TEST_F(MemoryTest, DisabledTrackingDropsRecords) {
  obs::setMemTrackingEnabled(false);
  obs::memAlloc("gated.tag", 1000);
  obs::memAllocCurrent(1000);
  obs::setMemTrackingEnabled(true);
  EXPECT_EQ(liveOf("gated.tag"), 0);
}

//===----------------------------------------------------------------------===//
// Scoped attribution
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, ScopedRecordsAttributeToInnermostScope) {
  {
    obs::MemScope Outer("outer.tag");
    obs::memAllocCurrent(10);
    {
      obs::MemScope Inner("inner.tag");
      obs::memAllocCurrent(100);
    }
    obs::memAllocCurrent(1);
  }
  EXPECT_EQ(liveOf("outer.tag"), 11);
  EXPECT_EQ(liveOf("inner.tag"), 100);
}

TEST_F(MemoryTest, ScopedRecordsDropWithoutAnOpenScope) {
  obs::memAllocCurrent(4096);
  EXPECT_EQ(obs::memTracker().totalLiveBytes(), 0);
}

TEST_F(MemoryTest, IfUnscopedYieldsToAnOuterScope) {
  // The decode entry points nest IfUnscoped so a measuring caller (the
  // audits) captures their records instead of the archive.decode tag.
  {
    obs::MemScope Outer("outer.tag");
    obs::MemScope Decode("decode.tag", obs::MemScope::Nest::IfUnscoped);
    obs::memAllocCurrent(64);
  }
  EXPECT_EQ(liveOf("outer.tag"), 64);
  EXPECT_EQ(liveOf("decode.tag"), 0);
  {
    obs::MemScope Decode("decode.tag", obs::MemScope::Nest::IfUnscoped);
    obs::memAllocCurrent(32);
  }
  EXPECT_EQ(liveOf("decode.tag"), 32); // opens normally when unscoped
}

TEST_F(MemoryTest, LocalAccountScopeKeepsGlobalTrackerClean) {
  obs::MemAccount Local;
  {
    obs::MemScope Scope(Local);
    obs::memAllocCurrent(500);
    obs::memFreeCurrent(100);
  }
  EXPECT_EQ(Local.liveBytes(), 400);
  EXPECT_EQ(obs::memTracker().totalLiveBytes(), 0);
}

//===----------------------------------------------------------------------===//
// Deep-size audit walks
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, DeepSizeCountsTimestampSetRuns) {
  TimestampSet Set = TimestampSet::fromSorted({1, 2, 3, 10, 11, 20});
  // {1,2,3}, {10,11}, {20} -> three series runs.
  EXPECT_EQ(obs::deepSize(Set), 3 * sizeof(SeriesRun));
  EXPECT_EQ(obs::deepSize(TimestampSet()), 0u);
}

TEST_F(MemoryTest, DeepSizeCountsTwppTraceElements) {
  TwppTrace Trace;
  Trace.Blocks.emplace_back(1, TimestampSet::fromSorted({1, 2}));
  Trace.Blocks.emplace_back(2, TimestampSet::fromSorted({5}));
  uint64_t PairBytes =
      2 * sizeof(std::pair<BlockId, TimestampSet>);
  EXPECT_EQ(obs::deepSize(Trace), PairBytes + 2 * sizeof(SeriesRun));
}

TEST_F(MemoryTest, DeepSizeCountsDictionaryChains) {
  DbbDictionary Dict;
  Dict.Chains.push_back({1, 2, 3});
  Dict.Chains.push_back({4});
  EXPECT_EQ(obs::deepSize(Dict),
            2 * sizeof(std::vector<BlockId>) + 4 * sizeof(BlockId));
}

TEST_F(MemoryTest, PathTraceDeepSizeMatchesFormula) {
  // deepSize counts element payload only (the top-level header is the
  // caller's); pathTraceDeepSize models a trace nested inside another
  // structure, so it adds the container header on top.
  PathTrace Trace = {1, 2, 3};
  EXPECT_EQ(obs::deepSize(Trace), 3 * sizeof(BlockId));
  EXPECT_EQ(obs::pathTraceDeepSize(3),
            sizeof(PathTrace) + obs::deepSize(Trace));
}

//===----------------------------------------------------------------------===//
// Reconcile: tracker vs deepSize on real archives
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, AuditReconcilesTrackerAgainstDeepSize) {
  TwppWpp Wpp = compactedWpp(99, 5, 400);
  std::string Path = tempPath("mem_audit.twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Wpp));
  // Building the fixture leaves legitimate dbb.tables/twpp.tables live
  // records behind; clear them so the leak assertion below sees only
  // what the audit itself does.
  obs::memTracker().reset();

  verify::MemoryAudit Audit;
  TwppWpp Decoded;
  ASSERT_TRUE(verify::auditArchiveMemory(Path, Audit, &Decoded));
  EXPECT_TRUE(Audit.Decoded);
  EXPECT_GT(Audit.TrackedBytes, 0u);
  EXPECT_EQ(Audit.DeepBytes, obs::deepSize(Decoded));
  uint64_t Delta = Audit.TrackedBytes > Audit.DeepBytes
                       ? Audit.TrackedBytes - Audit.DeepBytes
                       : Audit.DeepBytes - Audit.TrackedBytes;
  EXPECT_LE(Delta, verify::memReconcileToleranceBytes(Audit.DeepBytes))
      << "tracked " << Audit.TrackedBytes << " vs deep "
      << Audit.DeepBytes;
  // The in-memory footprint dominates the paper's serialized estimate.
  EXPECT_GE(Audit.DeepBytes, Audit.ModelBytes);
  // The audit captured into a private account — the only global residue
  // is the pooled decode-scratch arena (arena.decode), settled by an
  // explicit release. Nothing else leaked.
  releaseArchiveDecodeScratch();
  EXPECT_EQ(obs::memTracker().totalLiveBytes(), 0);
  std::remove(Path.c_str());
}

TEST_F(MemoryTest, AuditReconcilesInBothIoModes) {
  // The audit contract is mode-independent: buffered and mmap decodes of
  // the same archive must both reconcile, with identical deep sizes, and
  // neither the mapping nor the decode arena may leak into the scoped
  // capture the audit reports.
  TwppWpp Wpp = compactedWpp(42, 5, 400);
  std::string Path = tempPath("mem_audit_modes.twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Wpp));
  obs::memTracker().reset();

  verify::MemoryAudit PerMode[2];
  for (ReadPath Mode : {ReadPath::Buffered, ReadPath::Mmap}) {
    verify::MemoryAudit &Audit = PerMode[Mode == ReadPath::Mmap ? 1 : 0];
    TwppWpp Decoded;
    // The buffered instance forces the reader's fallback by failing every
    // mmap inside the audit.
    std::optional<fault::ScopedFaultSpec> NoMmap;
    if (Mode == ReadPath::Buffered)
      NoMmap.emplace("io:mmap:every=1");
    ASSERT_TRUE(verify::auditArchiveMemory(Path, Audit, &Decoded));
    EXPECT_TRUE(Audit.Decoded);
    EXPECT_EQ(Audit.DeepBytes, obs::deepSize(Decoded));
    uint64_t Delta = Audit.TrackedBytes > Audit.DeepBytes
                         ? Audit.TrackedBytes - Audit.DeepBytes
                         : Audit.DeepBytes - Audit.TrackedBytes;
    EXPECT_LE(Delta, verify::memReconcileToleranceBytes(Audit.DeepBytes))
        << fixtures::readPathName(Mode) << ": tracked " << Audit.TrackedBytes
        << " vs deep " << Audit.DeepBytes;
  }
  EXPECT_EQ(PerMode[0].DeepBytes, PerMode[1].DeepBytes);
  EXPECT_EQ(PerMode[0].TrackedBytes, PerMode[1].TrackedBytes);
  releaseArchiveDecodeScratch();
  EXPECT_EQ(obs::memTracker().totalLiveBytes(), 0);
  std::remove(Path.c_str());
}

TEST_F(MemoryTest, ArenaLedgerRecordsAndSettles) {
  Arena A(4096, obs::memtags::ArenaDecode);
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 0);
  A.allocate(100);
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 4096);
  A.allocate(8000); // spill block, also ledgered
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 4096 + 8000);
  // reset() keeps the pool (and thus the ledger) intact.
  A.reset();
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 4096 + 8000);
  A.release();
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 0);
}

TEST_F(MemoryTest, ArenaLedgerSurvivesTrackingToggle) {
  // Blocks acquired while tracking is off are never ledgered, so the
  // release after re-enabling must not drive the tag negative.
  Arena A(1024, obs::memtags::ArenaDecode);
  A.allocate(1000); // ledgered
  obs::setMemTrackingEnabled(false);
  A.allocate(1000); // second block, NOT ledgered
  obs::setMemTrackingEnabled(true);
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 1024);
  A.release();
  EXPECT_EQ(liveOf(obs::memtags::ArenaDecode), 0);
}

TEST_F(MemoryTest, MmapLedgerRecordsAndSettles) {
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string Path = tempPath("mem_mmap_ledger.bin");
  std::vector<uint8_t> Payload(513, 0xAB);
  ASSERT_TRUE(writeFileBytes(Path, Payload));
  {
    MappedFile Map;
    ASSERT_TRUE(Map.map(Path));
    EXPECT_EQ(liveOf(obs::memtags::ArchiveMmap),
              static_cast<int64_t>(Payload.size()));
  }
  // RAII unmap settles the ledger.
  EXPECT_EQ(liveOf(obs::memtags::ArchiveMmap), 0);
  std::remove(Path.c_str());
}

TEST_F(MemoryTest, MemoryChecksRunCleanOnAGoodArchive) {
  TwppWpp Wpp = compactedWpp(7, 4, 250);
  std::string Path = tempPath("mem_clean.twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Wpp));
  verify::DiagnosticEngine Engine;
  verify::runMemoryChecks(Path, Engine);
  EXPECT_TRUE(Engine.clean()) << verify::renderDiagnosticsText(Engine);
  std::remove(Path.c_str());
}

TEST_F(MemoryTest, NegativeLiveBytesFireTheCheck) {
  obs::memAlloc("broken.tag", 10);
  obs::memFree("broken.tag", 90);
  verify::DiagnosticEngine Engine;
  verify::runMemoryChecks(tempPath("does_not_exist.twpp"), Engine);
  EXPECT_FALSE(Engine.clean());
  bool Found = false;
  for (const verify::Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == verify::checks::MemNegativeLive)
      Found = true;
  EXPECT_TRUE(Found) << verify::renderDiagnosticsText(Engine);
}

//===----------------------------------------------------------------------===//
// Neutrality: tracking must never change what the pipeline produces
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, ArchiveBytesIdenticalWithTrackingOnAndOff) {
  RawTrace Trace = fixtures::randomTrace(1234, 6, 600);
  obs::setMemTrackingEnabled(false);
  std::vector<uint8_t> Off =
      encodeArchive(convertToTwpp(applyDbbCompaction(partitionWpp(Trace))));
  obs::setMemTrackingEnabled(true);
  std::vector<uint8_t> On =
      encodeArchive(convertToTwpp(applyDbbCompaction(partitionWpp(Trace))));
  EXPECT_EQ(Off, On);
}

//===----------------------------------------------------------------------===//
// Gauges and the RSS poller
//===----------------------------------------------------------------------===//

TEST_F(MemoryTest, PublishSetsEveryMemGauge) {
  obs::setMetricsEnabled(true);
  obs::metrics().reset();
  obs::memAlloc("gauge.tag", 2048);
  obs::memFree("gauge.tag", 1024);

  obs::publishMemMetrics(obs::metrics());

  EXPECT_EQ(obs::metrics().gauge(obs::names::MemTrackedLiveBytes).value(),
            1024);
  EXPECT_EQ(obs::metrics().gauge(obs::names::MemTrackedPeakBytes).value(),
            2048);
  EXPECT_EQ(obs::metrics().gauge(obs::names::MemAllocs).value(), 1);
  // RSS figures come from /proc on Linux; both gauges must be populated
  // and peak can never trail the current sample it folds in.
  int64_t Rss = obs::metrics().gauge(obs::names::MemRssBytes).value();
  int64_t Peak = obs::metrics().gauge(obs::names::MemPeakBytes).value();
  EXPECT_GT(Rss, 0);
  EXPECT_GE(Peak, Rss);
  obs::setMetricsEnabled(false);
}

TEST_F(MemoryTest, RssReadersReportThisProcess) {
  uint64_t Rss = obs::currentRssBytes();
  EXPECT_GT(Rss, 0u);
  EXPECT_GE(obs::peakRssBytes(), Rss);
}

TEST_F(MemoryTest, WindowPeakFoldsInCurrentRssAndResets) {
  uint64_t First = obs::takeMemWindowPeakBytes();
  EXPECT_GT(First, 0u); // never 0 even without the poller running
  uint64_t Second = obs::takeMemWindowPeakBytes();
  EXPECT_GT(Second, 0u);
}

TEST_F(MemoryTest, PollerStartStopIsIdempotent) {
  obs::startMemPoller(1);
  obs::startMemPoller(1); // second start is a no-op
  obs::stopMemPoller();
  obs::stopMemPoller(); // second stop is a no-op
  EXPECT_GT(obs::takeMemWindowPeakBytes(), 0u);
}

} // namespace
