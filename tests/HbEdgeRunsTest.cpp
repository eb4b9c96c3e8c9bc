//===- tests/HbEdgeRunsTest.cpp - Happens-before edges as runs ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// HbEdgeRuns in memory (push_back grouping, list order, edge-for-edge
// equality), the version-3 HBEG section on random irregular edge lists
// (lossless, and never more than one byte per stored run over five plain
// varints per edge), crafted HBEG payloads that every reader must
// refuse at the section's offset, crafted runs of millions of faulty
// edges that must verify with a bounded number of diagnostics, the
// writer's refusal of an edge list the reader would reject, and the same
// limit pair for the THRD thread table.
//
//===----------------------------------------------------------------------===//

#include "HbegFixtures.h"

#include "races/HappensBefore.h"
#include "support/FileIO.h"
#include "support/Random.h"
#include "verify/ThreadChecks.h"
#include "verify/Verify.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"
#include "wpp/Sizes.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::fixtures;

namespace {

constexpr HbEdge::Kind Lock = HbEdge::Kind::Lock;
constexpr HbEdge::Kind Fork = HbEdge::Kind::Fork;
constexpr HbEdge::Kind Join = HbEdge::Kind::Join;

TEST(HbEdgeRunsTest, PushBackExtendsTheOpenRunOfItsGroup) {
  // Two interleaved groups that step regularly, then a break in one.
  HbEdgeRuns Runs;
  Runs.push_back({Lock, 0, 10, 1, 20}); // 0: run A
  Runs.push_back({Lock, 1, 5, 2, 7});   // 1: run B
  Runs.push_back({Lock, 0, 13, 1, 24}); // 2: A, steps (2, +3, +4)
  Runs.push_back({Lock, 1, 6, 2, 9});   // 3: B, steps (2, +1, +2)
  Runs.push_back({Lock, 0, 16, 1, 28}); // 4: A
  Runs.push_back({Lock, 1, 9, 2, 9});   // 5: new run C (B's steps differ)
  Runs.push_back({Fork, 0, 16, 1, 0});  // 6: new group D
  ASSERT_EQ(Runs.size(), 7u);
  ASSERT_EQ(Runs.runs().size(), 4u);
  const HbEdgeRun &A = Runs.runs()[0];
  EXPECT_EQ(A.Index, 0u);
  EXPECT_EQ(A.Count, 3u);
  EXPECT_EQ(A.IndexStep, 2u);
  EXPECT_EQ(A.FromStep, 3);
  EXPECT_EQ(A.ToStep, 4);
  EXPECT_EQ(Runs.runs()[1].Count, 2u);
  EXPECT_EQ(Runs.runs()[2].Index, 5u);
  EXPECT_EQ(Runs.runs()[2].Count, 1u);
  EXPECT_EQ(Runs.runs()[3].Index, 6u);
  // The new run is now B's group's open run: the next regular step
  // extends C, not B.
  Runs.push_back({Lock, 1, 10, 2, 11});
  EXPECT_EQ(Runs.runs()[1].Count, 2u);
  EXPECT_EQ(Runs.runs()[2].Count, 2u);
}

TEST(HbEdgeRunsTest, ForEachAndExpandKeepListOrder) {
  std::vector<HbEdge> Edges = {{Lock, 0, 4, 1, 2}, {Lock, 2, 1, 1, 3},
                               {Lock, 0, 6, 1, 4}, {Lock, 0, 8, 1, 6},
                               {Lock, 2, 1, 1, 9}, {Fork, 0, 9, 2, 0}};
  HbEdgeRuns Runs = Edges;
  EXPECT_EQ(Runs.expand(), Edges);
  std::vector<uint32_t> Indices;
  Runs.forEach([&](uint32_t I, const HbEdge &E) {
    EXPECT_EQ(E, Edges[I]);
    Indices.push_back(I);
  });
  EXPECT_EQ(Indices, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(HbEdgeRunsTest, EqualityIsEdgeForEdge) {
  std::vector<HbEdge> Edges = {{Lock, 0, 1, 1, 1}, {Lock, 0, 2, 1, 2},
                               {Lock, 0, 3, 1, 3}};
  HbEdgeRuns OneRun = Edges;
  ASSERT_EQ(OneRun.runs().size(), 1u);
  // The same edges cut into three runs of one.
  HbEdgeRuns ThreeRuns;
  std::vector<HbEdgeRun> Singles;
  for (const HbEdge &E : Edges)
    Singles.push_back({E, 0, 1, 0, 0, 0});
  ASSERT_TRUE(HbEdgeRuns::tile(Singles, ThreeRuns));
  EXPECT_EQ(ThreeRuns.runs().size(), 3u);
  EXPECT_EQ(OneRun, ThreeRuns);
  HbEdgeRuns Other = Edges;
  Other.push_back({Lock, 0, 4, 1, 4});
  EXPECT_NE(OneRun, Other);
}

TEST(HbEdgeRunsTest, TilePlacesEachRunAtTheLowestFreeIndex) {
  // A covers 0 and 2; B starts at the lowest index A leaves free, 1; C
  // then starts at 3.
  std::vector<HbEdgeRun> Runs = {{{Lock, 0, 10, 1, 20}, 0, 2, 2, 5, 5},
                                 {{Lock, 1, 3, 2, 4}, 0, 1, 0, 0, 0},
                                 {{Join, 2, 9, 0, 30}, 0, 1, 0, 0, 0}};
  HbEdgeRuns Out;
  ASSERT_TRUE(HbEdgeRuns::tile(Runs, Out));
  EXPECT_EQ(Out.expand(),
            (std::vector<HbEdge>{{Lock, 0, 10, 1, 20},
                                 {Lock, 1, 3, 2, 4},
                                 {Lock, 0, 15, 1, 25},
                                 {Join, 2, 9, 0, 30}}));
}

/// The bytes of \p Edges as five plain varints each, behind a varint
/// edge count: the encoding HBEG replaced.
uint64_t plainEdgeListBytes(const std::vector<HbEdge> &Edges) {
  uint64_t Bytes = varintSize(Edges.size());
  for (const HbEdge &E : Edges)
    Bytes += varintSize(static_cast<uint64_t>(E.EdgeKind)) +
             varintSize(E.FromThread) + varintSize(E.FromTime) +
             varintSize(E.ToThread) + varintSize(E.ToTime);
  return Bytes;
}

/// A random edge list: a few (kind, from, to) groups interleaved at
/// random, each mostly stepping both times by its own constant, with
/// random jumps, step changes and occasional times near 2^32.
std::vector<HbEdge> randomEdges(Rng &R) {
  struct Group {
    HbEdge Next;
    int64_t FromStep, ToStep;
  };
  auto Time = [&R]() -> uint32_t {
    return R.nextBool(0.1) ? UINT32_MAX - static_cast<uint32_t>(R.nextBelow(8))
                           : static_cast<uint32_t>(R.nextBelow(5000));
  };
  const uint32_t Threads = 1 + static_cast<uint32_t>(R.nextBelow(8));
  std::vector<Group> Groups(1 + R.nextBelow(6));
  for (Group &G : Groups) {
    G.Next = {static_cast<HbEdge::Kind>(R.nextBelow(3)),
              static_cast<uint32_t>(R.nextBelow(Threads)), Time(),
              static_cast<uint32_t>(R.nextBelow(Threads)), Time()};
    G.FromStep = R.nextInRange(-3, 40);
    G.ToStep = R.nextInRange(-3, 40);
  }
  std::vector<HbEdge> Edges(R.nextBelow(400));
  for (HbEdge &E : Edges) {
    Group &G = Groups[R.nextBelow(Groups.size())];
    if (R.nextBool(0.2)) {
      G.Next.FromTime = Time();
      G.Next.ToTime = Time();
    }
    if (R.nextBool(0.05))
      G.FromStep = R.nextInRange(-1000, 1000);
    E = G.Next;
    G.Next.FromTime = static_cast<uint32_t>(G.Next.FromTime + G.FromStep);
    G.Next.ToTime = static_cast<uint32_t>(G.Next.ToTime + G.ToStep);
  }
  return Edges;
}

/// Encodes \p Edges in a thread-aware archive and decodes its HBEG
/// section back; \p HbegBytes and \p StoredRuns receive the payload
/// length and its run count.
HbEdgeRuns hbegRoundTrip(const HbEdgeRuns &Edges, uint64_t &HbegBytes,
                         uint64_t &StoredRuns) {
  ConcurrentWpp Wpp;
  Wpp.Conc.Edges = Edges;
  std::vector<uint8_t> Bytes = encodeConcurrentArchive(Wpp);
  ArchiveLayout Layout;
  EXPECT_TRUE(decodeArchiveLayout(ByteSpan(Bytes), Layout));
  const ArchiveLayout::Section *Hbeg =
      Layout.findSection(ArchiveSectionHbEdges);
  EXPECT_NE(Hbeg, nullptr);
  ByteSpan Payload = ByteSpan(Bytes).subspan(Hbeg->Offset, Hbeg->Length);
  HbegBytes = Hbeg->Length;
  StoredRuns = ByteReader(Payload).readVarUint();
  ConcurrencyInfo Back;
  EXPECT_TRUE(decodeArchiveSection(ArchiveSectionHbEdges, Payload, Back));
  return Back.Edges;
}

TEST(HbEdgeRunsProperty, RandomIrregularListsRoundTripWithinOneBytePerRun) {
  uint64_t Irregular = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R(Seed);
    std::vector<HbEdge> Edges = randomEdges(R);
    HbEdgeRuns Runs = Edges;
    ASSERT_EQ(Runs.expand(), Edges) << "seed " << Seed;
    uint64_t HbegBytes = 0, StoredRuns = 0;
    HbEdgeRuns Back = hbegRoundTrip(Runs, HbegBytes, StoredRuns);
    ASSERT_EQ(Back.expand(), Edges) << "seed " << Seed;
    EXPECT_EQ(Back, Runs) << "seed " << Seed;
    EXPECT_LE(HbegBytes, plainEdgeListBytes(Edges) + StoredRuns)
        << "seed " << Seed;
    Irregular += StoredRuns > Runs.runs().size();
  }
  // Times near 2^32 give some runs steps that cost more than their
  // edges: the encoder must have split at least one.
  EXPECT_GT(Irregular, 0u);
}

TEST(HbEdgeRunsProperty, EncoderSplitsARunThatDoesNotPay) {
  // One run of two whose steps (-(2^32 - 1) twice) cost 11 bytes, where
  // the second edge as plain varints costs 5.
  HbEdgeRuns Runs;
  Runs.push_back({Lock, 0, UINT32_MAX, 1, UINT32_MAX});
  Runs.push_back({Lock, 0, 0, 1, 0});
  ASSERT_EQ(Runs.runs().size(), 1u);
  uint64_t HbegBytes = 0, StoredRuns = 0;
  HbEdgeRuns Back = hbegRoundTrip(Runs, HbegBytes, StoredRuns);
  EXPECT_EQ(StoredRuns, 2u);
  EXPECT_EQ(Back.runs().size(), 2u);
  EXPECT_EQ(Back, Runs);
  EXPECT_LE(HbegBytes, plainEdgeListBytes(Runs.expand()) + StoredRuns);
}

struct CraftedCase {
  const char *Name;
  std::vector<uint8_t> Payload;
};

std::vector<CraftedCase> craftedCases() {
  std::vector<CraftedCase> Cases;
  Cases.push_back({"zero count", hbegPayload({{0, 0, 1, 4, 5, 0}})});
  // Covers 0 and 3 of three edges.
  Cases.push_back({"run past the edge count",
                   hbegPayload({{0, 0, 1, 4, 5, 2, 3, 1, 1},
                                {0, 2, 1, 4, 5, 1}})});
  // A covers 0 and 2; B starts at 1 and steps onto 2.
  Cases.push_back({"overlapping runs",
                   hbegPayload({{0, 0, 1, 4, 5, 2, 2, 1, 1},
                                {0, 2, 1, 4, 5, 2, 1, 1, 1}})});
  // Index 1 is left uncovered, so the run's second edge falls past the
  // edge count of two.
  Cases.push_back({"gap", hbegPayload({{0, 0, 1, 4, 5, 2, 2, 1, 1}})});
  Cases.push_back({"zero index step",
                   hbegPayload({{0, 0, 1, 4, 5, 2, 0, 1, 1}})});
  Cases.push_back({"negative index step",
                   hbegPayload({{0, 0, 1, 4, 5, 2, -1, 1, 1}})});
  Cases.push_back({"from step overflows uint32_t",
                   hbegPayload({{0, 0, 1, UINT32_MAX, 5, 2, 1, 1, 1}})});
  Cases.push_back({"to step underflows zero",
                   hbegPayload({{0, 0, 1, 4, 0, 3, 1, 1, -1}})});
  Cases.push_back({"time wider than uint32_t",
                   hbegPayload({{0, 0, 1, uint64_t{UINT32_MAX} + 1, 5, 1}})});
  Cases.push_back({"kind 3", hbegPayload({{3, 0, 1, 4, 5, 1}})});
  Cases.push_back({"count past the edge limit",
                   hbegPayload({{0, 0, 1, 4, 5, HbEdgeRuns::MaxEdges + 1,
                                 1, 0, 0}})});
  Cases.push_back({"counts summing past the edge limit",
                   hbegPayload({{0, 0, 1, 4, 5, HbEdgeRuns::MaxEdges, 1, 0, 0},
                                {0, 2, 1, 4, 5, 1}})});
  std::vector<uint8_t> Truncated = hbegPayload({{0, 0, 1, 4, 5, 2, 1, 1, 1}});
  Truncated.resize(Truncated.size() - 2);
  Cases.push_back({"truncated run", Truncated});
  Cases.push_back({"empty payload", {}});
  return Cases;
}

TEST(HbegCorruption, CraftedSectionsFailAtTheHbegOffset) {
  const std::vector<uint8_t> Healthy = contendedArchiveBytes();
  const std::string Path = ::testing::TempDir() + "/twpp_crafted_hbeg.twpp";
  for (const CraftedCase &Case : craftedCases()) {
    SCOPED_TRACE(Case.Name);
    uint64_t At = 0;
    std::vector<uint8_t> Bytes =
        withSectionPayload(Healthy, ArchiveSectionHbEdges, Case.Payload, At);
    ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());

    ArchiveReader Reader;
    ASSERT_TRUE(Reader.open(Path)); // the layout itself is intact
    ConcurrencyInfo Conc;
    EXPECT_FALSE(Reader.readConcurrency(Conc));
    EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-section");
    EXPECT_EQ(Reader.lastError().Location, "HBEG section");
    EXPECT_EQ(Reader.lastError().ByteOffset, At);

    verify::DiagnosticEngine Engine;
    ASSERT_TRUE(verify::verifyArchiveFile(Path, Engine));
    size_t AtHbeg = 0;
    for (const verify::Diagnostic &D : Engine.diagnostics())
      AtHbeg += D.CheckId == "twpp-archive-section" &&
                D.Location == "HBEG section" && D.ByteOffset == At;
    EXPECT_EQ(AtHbeg, 1u) << verify::renderDiagnosticsText(Engine);
  }
  std::remove(Path.c_str());
}

TEST(HbegCorruption, AValidCraftedSectionDecodes) {
  // The same splice with well-formed runs: the failures above are the
  // payloads', not the splice's.
  uint64_t At = 0;
  std::vector<uint8_t> Bytes = withSectionPayload(
      contendedArchiveBytes(), ArchiveSectionHbEdges,
      hbegPayload({{0, 0, 1, 4, 5, 2, 2, 1, 1}, {0, 2, 1, 4, 5, 1}}), At);
  const std::string Path = ::testing::TempDir() + "/twpp_crafted_ok.twpp";
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  ConcurrencyInfo Conc;
  ASSERT_TRUE(Reader.readConcurrency(Conc)) << Reader.lastError().Message;
  EXPECT_EQ(Conc.Edges.expand(),
            (std::vector<HbEdge>{
                {Lock, 0, 4, 1, 5}, {Lock, 2, 4, 1, 5}, {Lock, 0, 5, 1, 6}}));
  std::remove(Path.c_str());
}

TEST(HbegCorruption, VersionTwoArchivesAreRejectedAtTheHeader) {
  std::vector<uint8_t> Bytes = contendedArchiveBytes();
  Bytes[4] = 2; // the little-endian version field
  const std::string Path = ::testing::TempDir() + "/twpp_version2.twpp";
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  ArchiveReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-header");
  EXPECT_EQ(Reader.lastError().ByteOffset, 4u);
  EXPECT_NE(Reader.lastError().Message.find("unsupported archive version 2"),
            std::string::npos)
      << Reader.lastError().Message;

  verify::DiagnosticEngine Engine;
  ASSERT_TRUE(verify::verifyArchiveFile(Path, Engine));
  ASSERT_FALSE(Engine.diagnostics().empty());
  EXPECT_EQ(Engine.diagnostics().front().CheckId, "twpp-archive-header");
  EXPECT_EQ(Engine.diagnostics().front().ByteOffset, 4u);
  std::remove(Path.c_str());
}

/// \p Engine's diagnostics of check \p Check, rendered one a line.
std::string renderCheck(const verify::DiagnosticEngine &Engine,
                        const std::string &Check) {
  std::string Out;
  for (const verify::Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == Check)
      Out += D.Location + ": " + D.Message + "\n";
  return Out;
}

TEST(HbegLimits, MillionFoldFaultyRunsFileBoundedDiagnostics) {
  // Twelve bytes of HBEG describing 2^24 faulty edges: a self edge on
  // thread 0 whose target steps one block at a time far past the
  // thread's block count, and a run from a thread outside the table.
  // Verification files each fault kind at most 64 times plus one count,
  // and the clock build adds no checkpoint past a thread's last block.
  const std::vector<uint8_t> Healthy = contendedArchiveBytes();
  const std::string Path = ::testing::TempDir() + "/twpp_hbeg_bomb.twpp";
  struct Case {
    const char *Name;
    HbegRun Run;
    std::string Check;
    std::string Summary;
  };
  const uint32_t N = HbEdgeRuns::MaxEdges;
  const std::vector<Case> Cases = {
      {"self edges", {0, 0, 0, 0, 1, N, 1, 0, 1}, "twpp-thread-sync-edges",
       "edge 64: " + std::to_string(N - 64) + " more self edges\n"},
      {"thread outside the table", {0, 9, 0, 0, 1, N, 1, 0, 0},
       "twpp-race-clock-monotone",
       "edge 64: " + std::to_string(N - 64) +
           " more edges target times before already-applied edges\n"}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    uint64_t At = 0;
    ASSERT_TRUE(
        writeFileBytes(Path, withSectionPayload(Healthy, ArchiveSectionHbEdges,
                                                hbegPayload({C.Run}), At))
            .ok());
    verify::DiagnosticEngine Engine;
    ASSERT_TRUE(verify::verifyArchiveFile(Path, Engine));
    EXPECT_LE(Engine.diagnostics().size(), 4 * 65u)
        << verify::renderDiagnosticsText(Engine);
    const std::string Rendered = renderCheck(Engine, C.Check);
    ASSERT_GE(Rendered.size(), C.Summary.size());
    EXPECT_EQ(Rendered.substr(Rendered.size() - C.Summary.size()), C.Summary);
    EXPECT_EQ(renderCheck(Engine, "twpp-archive-section"), "");

    ArchiveReader Reader;
    ConcurrencyInfo Conc;
    ASSERT_TRUE(Reader.open(Path) && Reader.readConcurrency(Conc));
    races::HappensBefore Hb = races::buildHappensBefore(Conc);
    for (size_t T = 0; T != Conc.Threads.size(); ++T)
      EXPECT_LE(Hb.Threads[T].size(), Conc.Threads[T].BlockCount + 1);
  }
  std::remove(Path.c_str());
}

TEST(HbegLimits, SyncEdgeDiagnosticsKeepTheirEdgeByEdgeFormBelowTheCap) {
  // Three faulty edges in one run: each is still filed on its own.
  HbEdgeRuns Runs;
  for (uint32_t K = 0; K != 3; ++K)
    Runs.push_back({Lock, 1, 1, 1, 2 + K});
  ASSERT_EQ(Runs.runs().size(), 1u);
  ConcurrencyInfo Conc;
  Conc.Threads = {{0, 10}, {1, 10}};
  Conc.Accesses.resize(2);
  Conc.Edges = Runs;
  verify::DiagnosticEngine Engine;
  verify::runConcurrencyChecks(Conc, nullptr, Engine);
  EXPECT_EQ(renderCheck(Engine, "twpp-thread-sync-edges"),
            "edge 0: self edge (program order needs no edges)\n"
            "edge 1: self edge (program order needs no edges)\n"
            "edge 2: self edge (program order needs no edges)\n");
}

TEST(HbegLimits, TimelinesGainNoCheckpointPastTheBlockCount) {
  // Thread 1 has 3 blocks: the edge into it at 5 orders none of its
  // events and adds no checkpoint. Thread 0 claims the widest block count
  // a THRD varint holds, which must not wrap its timeline's size.
  ConcurrencyInfo Conc;
  Conc.Threads = {{0, UINT64_MAX}, {1, 3}};
  Conc.Edges = std::vector<HbEdge>{{Lock, 0, 1, 1, 2}, {Lock, 0, 2, 1, 5}};
  races::HappensBefore Hb = races::buildHappensBefore(Conc);
  EXPECT_TRUE(Hb.OutOfOrderEdges.empty());
  EXPECT_EQ(Hb.Threads[0].Times, (std::vector<uint32_t>{0}));
  EXPECT_EQ(Hb.Threads[1].Times, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Hb.Threads[1].Clocks, (std::vector<uint32_t>{0, 0, 1, 0}));
}

TEST(HbegLimits, TheWriterRefusesWhatTheReaderWouldReject) {
  // A list of exactly MaxEdges edges writes and reads back; one more
  // edge and the writer refuses rather than write an unreadable archive.
  HbEdgeRuns Runs;
  ASSERT_TRUE(HbEdgeRuns::tile(
      {{{Lock, 0, 1, 1, 1}, 0, HbEdgeRuns::MaxEdges, 1, 0, 0}}, Runs));
  {
    uint64_t HbegBytes = 0, StoredRuns = 0;
    HbEdgeRuns Back = hbegRoundTrip(Runs, HbegBytes, StoredRuns);
    EXPECT_EQ(StoredRuns, 1u);
    EXPECT_EQ(Back.size(), size_t{HbEdgeRuns::MaxEdges});
    EXPECT_TRUE(Back.runs() == Runs.runs());
  }
  Runs.push_back({Lock, 0, 2, 1, 2});
  ConcurrentWpp Wpp;
  Wpp.Conc.Edges = std::move(Runs);
  EXPECT_TRUE(encodeConcurrentArchive(Wpp).empty());
  const std::string Path = ::testing::TempDir() + "/twpp_too_many_edges.twpp";
  std::remove(Path.c_str());
  IoError Err;
  EXPECT_FALSE(writeConcurrentArchiveFile(Path, Wpp, &Err));
  EXPECT_EQ(Err.Status, IoStatus::WriteFailed);
  EXPECT_NE(Err.message().find("exceed the archive's limit"),
            std::string::npos)
      << Err.message();
  std::vector<uint8_t> Written;
  EXPECT_FALSE(readFileBytes(Path, Written).ok()); // nothing was written
}

/// The contended profile with its thread table widened to \p Threads
/// (the added threads have no blocks and no accesses).
ConcurrentWpp contendedWithThreads(uint32_t Threads) {
  ConcurrentWpp Wpp = compactConcurrentWpp(
      generateConcurrentTrace(testConcurrentProfiles()[0]));
  for (uint32_t T = Wpp.Conc.Threads.size(); T != Threads; ++T)
    Wpp.Conc.Threads.push_back({T, 0});
  Wpp.Conc.Accesses.resize(Threads);
  return Wpp;
}

TEST(ThreadTableLimits, ThreadsPastTheCapFailAtTheThrdOffset) {
  // Every timeline of the happens-before build is as wide as the thread
  // table, so THRD is capped: MaxThreads threads read back, one more
  // fails at the section's offset in the reader and in the verifier.
  const uint32_t Cap = ConcurrencyInfo::MaxThreads;
  const ConcurrentWpp Wpp = contendedWithThreads(Cap);
  const std::vector<uint8_t> AtCap = encodeConcurrentArchive(Wpp);
  ASSERT_FALSE(AtCap.empty());
  const std::string Path = ::testing::TempDir() + "/twpp_thread_cap.twpp";
  {
    ASSERT_TRUE(writeFileBytes(Path, AtCap).ok());
    ArchiveReader Reader;
    ConcurrencyInfo Conc;
    ASSERT_TRUE(Reader.open(Path));
    ASSERT_TRUE(Reader.readConcurrency(Conc)) << Reader.lastError().Message;
    EXPECT_EQ(Conc.Threads.size(), size_t{Cap});
  }

  uint64_t At = 0;
  ASSERT_TRUE(writeFileBytes(
                  Path, withSectionPayload(
                            AtCap, ArchiveSectionThreads,
                            thrdPayload(Cap + 1, Wpp.Conc.FunctionCount), At))
                  .ok());
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path)); // the layout itself is intact
  ConcurrencyInfo Conc;
  EXPECT_FALSE(Reader.readConcurrency(Conc));
  EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-section");
  EXPECT_EQ(Reader.lastError().Message, "THRD section does not decode");
  EXPECT_EQ(Reader.lastError().Location, "THRD section");
  EXPECT_EQ(Reader.lastError().ByteOffset, At);

  verify::DiagnosticEngine Engine;
  ASSERT_TRUE(verify::verifyArchiveFile(Path, Engine));
  size_t AtThrd = 0;
  for (const verify::Diagnostic &D : Engine.diagnostics())
    AtThrd += D.CheckId == "twpp-archive-section" &&
              D.Location == "THRD section" && D.ByteOffset == At;
  EXPECT_EQ(AtThrd, 1u) << verify::renderDiagnosticsText(Engine);
  std::remove(Path.c_str());
}

TEST(ThreadTableLimits, TheWriterRefusesMoreThreadsThanTheCap) {
  ConcurrentWpp Wpp = contendedWithThreads(ConcurrencyInfo::MaxThreads + 1);
  EXPECT_TRUE(encodeConcurrentArchive(Wpp).empty());
  const std::string Path = ::testing::TempDir() + "/twpp_too_many_threads.twpp";
  std::remove(Path.c_str());
  IoError Err;
  EXPECT_FALSE(writeConcurrentArchiveFile(Path, Wpp, &Err));
  EXPECT_EQ(Err.Status, IoStatus::WriteFailed);
  EXPECT_NE(Err.message().find("1025 threads exceed the archive's limit of "
                               "1024"),
            std::string::npos)
      << Err.message();
  std::vector<uint8_t> Written;
  EXPECT_FALSE(readFileBytes(Path, Written).ok()); // nothing was written
}

} // namespace
