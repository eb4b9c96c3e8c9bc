//===- tests/ConcurrentArchiveTest.cpp - Thread-aware archive tests -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "verify/ArchiveChecks.h"
#include "verify/Diagnostics.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"
#include "workloads/Concurrent.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

using namespace twpp;

namespace {

std::string tempPath(const std::string &Name) {
  return (std::filesystem::temp_directory_path() / Name).string();
}

ConcurrentWpp buildSmall() {
  ConcurrentProfile P = testConcurrentProfiles()[0]; // contended
  return compactConcurrentWpp(generateConcurrentTrace(P));
}

size_t countCheck(const verify::DiagnosticEngine &Engine,
                  std::string_view Id) {
  size_t N = 0;
  for (const verify::Diagnostic &D : Engine.diagnostics())
    N += D.CheckId == Id;
  return N;
}

TEST(ConcurrentArchiveTest, RoundTrip) {
  ConcurrentProfile P = testConcurrentProfiles()[0];
  ConcurrentTrace Trace = generateConcurrentTrace(P);
  ConcurrentWpp Wpp = compactConcurrentWpp(Trace);

  std::string Path = tempPath("conc_roundtrip.twpp");
  ASSERT_TRUE(writeConcurrentArchiveFile(Path, Wpp));

  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  EXPECT_EQ(Reader.version(), 3u);
  EXPECT_TRUE(Reader.threadAware());

  ConcurrencyInfo Conc;
  ASSERT_TRUE(Reader.readConcurrency(Conc));
  EXPECT_EQ(Conc, Wpp.Conc);

  ConcurrentWpp Back;
  ASSERT_TRUE(Reader.readAllConcurrent(Back));
  EXPECT_EQ(Back.Conc, Wpp.Conc);
  ASSERT_EQ(Back.Body.Functions.size(), Wpp.Body.Functions.size());
  for (uint32_t T = 0; T != P.Threads; ++T)
    EXPECT_EQ(reconstructThreadTrace(Back, T), Trace.Threads[T].Trace)
        << "thread " << T;
  std::remove(Path.c_str());
}

TEST(ConcurrentArchiveTest, SingleThreadedArchivesStayVersion1) {
  ConcurrentWpp Wpp = buildSmall();
  // The merged body alone through the v1 encoder: version field 1, no
  // trailer, and readers reject concurrency queries.
  std::vector<uint8_t> Bytes = encodeArchive(Wpp.Body);
  ByteReader Reader(Bytes);
  Reader.readFixed32(); // magic
  EXPECT_EQ(Reader.readFixed32(), 1u);

  std::string Path = tempPath("conc_v1.twpp");
  ASSERT_TRUE(writeArchiveFile(Path, Wpp.Body));
  ArchiveReader A;
  ASSERT_TRUE(A.open(Path));
  EXPECT_EQ(A.version(), 1u);
  EXPECT_FALSE(A.threadAware());
  ConcurrencyInfo Conc;
  EXPECT_FALSE(A.readConcurrency(Conc));
  EXPECT_EQ(A.lastError().CheckId, "twpp-archive-section");
  std::remove(Path.c_str());
}

TEST(ConcurrentArchiveTest, UnknownSectionTagRejected) {
  ConcurrentWpp Wpp = buildSmall();
  std::vector<uint8_t> Bytes = encodeConcurrentArchive(Wpp);

  // Locate the first section record (right after the DCG) and stamp an
  // unknown tag over it.
  ByteReader Header(Bytes);
  Header.readFixed32();
  Header.readFixed32();
  Header.readFixed32();
  uint64_t DcgOffset = Header.readFixed64();
  uint64_t DcgLength = Header.readFixed64();
  size_t TrailerAt = static_cast<size_t>(DcgOffset + DcgLength);
  ASSERT_LT(TrailerAt + 4, Bytes.size());
  Bytes[TrailerAt + 0] = 'X';
  Bytes[TrailerAt + 1] = 'X';
  Bytes[TrailerAt + 2] = 'X';
  Bytes[TrailerAt + 3] = 'X';

  std::string Path = tempPath("conc_unknown_tag.twpp");
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  ArchiveReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-section");

  verify::DiagnosticEngine Engine;
  verify::runArchiveBytesChecks(Bytes, Engine);
  EXPECT_FALSE(Engine.clean());
  EXPECT_GE(countCheck(Engine, "twpp-archive-section"), 1u);
  std::remove(Path.c_str());
}

TEST(ConcurrentArchiveTest, TruncatedTrailerRejected) {
  ConcurrentWpp Wpp = buildSmall();
  std::vector<uint8_t> Bytes = encodeConcurrentArchive(Wpp);
  Bytes.resize(Bytes.size() - 7); // clip into the last section payload

  std::string Path = tempPath("conc_truncated.twpp");
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  ArchiveReader Reader;
  EXPECT_FALSE(Reader.open(Path));
  EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-section");

  verify::DiagnosticEngine Engine;
  verify::runArchiveBytesChecks(Bytes, Engine);
  EXPECT_GE(countCheck(Engine, "twpp-archive-section"), 1u);
  std::remove(Path.c_str());
}

TEST(ConcurrentArchiveTest, VerifierAcceptsHealthyV2) {
  ConcurrentWpp Wpp = buildSmall();
  std::vector<uint8_t> Bytes = encodeConcurrentArchive(Wpp);
  verify::DiagnosticEngine Engine;
  verify::runArchiveBytesChecks(Bytes, Engine);
  EXPECT_TRUE(Engine.clean()) << verify::renderDiagnosticsText(Engine);
}

TEST(ConcurrentArchiveTest, VerifierCatchesCorruptConcurrency) {
  ConcurrentWpp Wpp = buildSmall();
  {
    // Thread table lies about a block count: the partition check and the
    // access bounds check both key off it.
    ConcurrentWpp Bad = Wpp;
    Bad.Conc.Threads[1].BlockCount /= 2;
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(encodeConcurrentArchive(Bad), Engine);
    EXPECT_GE(countCheck(Engine, "twpp-thread-partition"), 1u);
    EXPECT_GE(countCheck(Engine, "twpp-thread-access-bounds"), 1u);
  }
  {
    // An access set whose runs descend: the decoder takes {-9, -3}, the
    // race engine's run cursors do not.
    ConcurrentWpp Bad = Wpp;
    ASSERT_TRUE(TimestampSet::decodeSigned(
        std::vector<int64_t>{-9, -3},
        Bad.Conc.Accesses[1].Accesses[0].Writes));
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(encodeConcurrentArchive(Bad), Engine);
    EXPECT_EQ(countCheck(Engine, "twpp-thread-access-bounds"), 1u)
        << verify::renderDiagnosticsText(Engine);
  }
  {
    // An edge from a nonexistent thread.
    ConcurrentWpp Bad = Wpp;
    Bad.Conc.Edges.push_back({HbEdge::Kind::Lock, 99, 1, 0, 1});
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(encodeConcurrentArchive(Bad), Engine);
    EXPECT_GE(countCheck(Engine, "twpp-thread-sync-edges"), 1u);
  }
  {
    // Edge targets regress on thread 0: the clock family must flag it.
    ConcurrentWpp Bad = Wpp;
    Bad.Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 1, 0, 2});
    Bad.Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 2, 0, 1});
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(encodeConcurrentArchive(Bad), Engine);
    EXPECT_GE(countCheck(Engine, "twpp-race-clock-monotone"), 1u);
  }
}

/// Every rendered diagnostic of the clock family, in report order.
std::string clockDiagnostics(const ConcurrentWpp &Wpp) {
  verify::DiagnosticEngine Engine;
  verify::runArchiveBytesChecks(encodeConcurrentArchive(Wpp), Engine);
  std::string Out;
  for (const verify::Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == "twpp-race-clock-monotone")
      Out += D.Location + ": " + D.Message + "\n";
  return Out;
}

TEST(ConcurrentArchiveTest, ClockDiagnosticsArePinned) {
  ConcurrentWpp Wpp = buildSmall();
  const size_t Base = Wpp.Conc.Edges.size();
  {
    // The regressing-target archive above: both appended edges target
    // times behind thread 0's derived checkpoints.
    ConcurrentWpp Bad = Wpp;
    Bad.Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 1, 0, 2});
    Bad.Conc.Edges.push_back({HbEdge::Kind::Lock, 1, 2, 0, 1});
    std::string Expected;
    for (size_t I : {Base, Base + 1})
      Expected += "edge " + std::to_string(I) + ": edge " +
                  std::to_string(I) +
                  " targets a time before an already-applied edge (clocks "
                  "would run backwards)\n";
    EXPECT_EQ(clockDiagnostics(Bad), Expected);
  }
  {
    // A cycle placed before every derived edge: thread 0 at 40 -> thread
    // 1 at 1 -> thread 0 at 2. Every later checkpoint of thread 0 up to
    // time 40 inherits the claim on its own future, and the first fork
    // edge now lands behind thread 1's checkpoint at 1.
    ConcurrentWpp Bad = Wpp;
    std::vector<HbEdge> Edges = Bad.Conc.Edges.expand();
    Edges.insert(Edges.begin(), {{HbEdge::Kind::Lock, 0, 40, 1, 1},
                                 {HbEdge::Kind::Lock, 1, 1, 0, 2}});
    Bad.Conc.Edges = Edges;
    std::string Expected = "edge 2: edge 2 targets a time before an "
                           "already-applied edge (clocks would run "
                           "backwards)\n";
    const uint32_t Times[] = {2, 8, 15, 22, 29, 36};
    for (size_t I = 0; I != 6; ++I)
      Expected += "thread 0 checkpoint " + std::to_string(I + 1) +
                  ": checkpoint at time " + std::to_string(Times[I]) +
                  " claims knowledge of the thread's own future (40)\n";
    EXPECT_EQ(clockDiagnostics(Bad), Expected);
  }
}

} // namespace
