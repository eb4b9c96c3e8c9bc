//===- tests/VerifyCorruptionTest.cpp - verifier vs corrupted archives -----===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mirrors every mutation of ArchiveCorruptionTest through the verifier:
/// each corruption the reader survives-or-rejects must be *named* by at
/// least one check of runArchiveBytesChecks, healthy archives (including
/// every paper-profile workload) must verify with zero diagnostics, and
/// ArchiveReader::lastError() must describe each failure with the right
/// check id, section and byte offset (the decode-error hardening
/// contract).
///
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"
#include "support/Random.h"
#include "verify/Verify.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"

#include "ReadPaths.h"
#include "TestTraces.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::verify;
using fixtures::openOn;
using fixtures::ReadPath;

namespace {

// Arm the TWPP_VERIFY post-stage assertions: when the environment
// variable is set (the sanitizer CI job does), every compactWpp /
// encodeArchive in this binary re-verifies its own output.
const bool PipelineVerifierInstalled = [] {
  installPipelineVerifier();
  return true;
}();

// The pinned archive layout (docs/FORMATS.md; ArchiveCorruptionTest
// asserts the same constants against live bytes).
constexpr size_t PrefixSize = 12;
constexpr size_t DcgFieldsSize = 16;
constexpr size_t IndexStart = PrefixSize + DcgFieldsSize;
constexpr size_t IndexRowSize = 24;

uint64_t readLe64(const std::vector<uint8_t> &Bytes, size_t At) {
  uint64_t Value = 0;
  for (int I = 0; I < 8; ++I)
    Value |= static_cast<uint64_t>(Bytes[At + I]) << (8 * I);
  return Value;
}

void writeLe64(std::vector<uint8_t> &Bytes, size_t At, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Bytes[At + I] = static_cast<uint8_t>(Value >> (8 * I));
}

bool hasCheck(const DiagnosticEngine &Engine, std::string_view Id) {
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == Id)
      return true;
  return false;
}

/// First diagnostic filed under \p Id, or nullptr.
const Diagnostic *firstDiag(const DiagnosticEngine &Engine,
                            std::string_view Id) {
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == Id)
      return &D;
  return nullptr;
}

DiagnosticEngine verifyBytes(const std::vector<uint8_t> &Bytes,
                             const std::string &Glob = "*") {
  DiagnosticEngine Engine(Glob);
  runArchiveBytesChecks(Bytes, Engine);
  return Engine;
}

/// Same fixture as ArchiveCorruptionTest: one healthy archive, in bytes
/// and decoded, shared by every test in the suite.
class VerifyCorruption : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    RawTrace Trace = fixtures::randomTrace(2024, 6, 3000);
    Original = new TwppWpp(compactWpp(Trace));
    Bytes = new std::vector<uint8_t>(encodeArchive(*Original));
  }

  static void TearDownTestSuite() {
    delete Original;
    delete Bytes;
    Original = nullptr;
    Bytes = nullptr;
  }

  std::string writeVariant(const std::vector<uint8_t> &Variant,
                           const std::string &Name) {
    std::string Path = ::testing::TempDir() + "/verify_" + Name + ".twpp";
    EXPECT_TRUE(writeFileBytes(Path, Variant));
    Cleanup.push_back(Path);
    return Path;
  }

  void TearDown() override {
    for (const std::string &Path : Cleanup)
      std::remove(Path.c_str());
  }

  static TwppWpp *Original;
  static std::vector<uint8_t> *Bytes;
  std::vector<std::string> Cleanup;
};

TwppWpp *VerifyCorruption::Original = nullptr;
std::vector<uint8_t> *VerifyCorruption::Bytes = nullptr;

//===----------------------------------------------------------------------===//
// Healthy archives verify clean.
//===----------------------------------------------------------------------===//

TEST_F(VerifyCorruption, HealthyArchiveHasNoDiagnostics) {
  DiagnosticEngine Engine = verifyBytes(*Bytes);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST_F(VerifyCorruption, ArchiveGlobCoversEveryFinding) {
  // The CI smoke filter: with --checks=twpp-archive-* the raw-byte layer
  // still runs end to end on a healthy archive.
  DiagnosticEngine Engine = verifyBytes(*Bytes, "twpp-archive-*");
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

//===----------------------------------------------------------------------===//
// Header-layer corruptions: truncation, magic/version, function count.
//===----------------------------------------------------------------------===//

TEST_F(VerifyCorruption, TruncationsAreHeaderErrors) {
  size_t IndexEnd = IndexStart + Original->Functions.size() * IndexRowSize;
  for (size_t Length : {size_t(0), size_t(1), size_t(4), size_t(11),
                        PrefixSize, size_t(20), IndexStart - 1, IndexStart,
                        IndexStart + 5, IndexEnd - 1}) {
    std::vector<uint8_t> Truncated(Bytes->begin(),
                                   Bytes->begin() +
                                       static_cast<long>(Length));
    DiagnosticEngine Engine = verifyBytes(Truncated);
    EXPECT_FALSE(Engine.clean()) << "prefix length " << Length;
    EXPECT_TRUE(hasCheck(Engine, checks::ArchiveHeader))
        << "prefix length " << Length << ": "
        << renderDiagnosticsText(Engine);
  }
}

TEST_F(VerifyCorruption, BadMagicAndVersionAreHeaderErrors) {
  for (size_t Byte : {size_t(0), size_t(4)}) {
    std::vector<uint8_t> Variant = *Bytes;
    Variant[Byte] ^= 0xFF;
    DiagnosticEngine Engine = verifyBytes(Variant);
    const Diagnostic *D = firstDiag(Engine, checks::ArchiveHeader);
    ASSERT_NE(D, nullptr) << "flipped header byte " << Byte;
    EXPECT_EQ(D->ByteOffset, Byte);
    EXPECT_EQ(D->Location, "header");
  }
}

TEST_F(VerifyCorruption, HugeFunctionCountIsAHeaderError) {
  std::vector<uint8_t> Variant = *Bytes;
  Variant[8] = 0xFF;
  Variant[9] = 0xFF;
  Variant[10] = 0xFF;
  Variant[11] = 0x7F;
  DiagnosticEngine Engine = verifyBytes(Variant);
  const Diagnostic *D = firstDiag(Engine, checks::ArchiveHeader);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->ByteOffset, 8u);
}

TEST_F(VerifyCorruption, DcgExtentPastEofIsAHeaderError) {
  for (size_t Field : {size_t(0), size_t(8)}) {
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, PrefixSize + Field,
              Field == 0 ? Bytes->size() + 1 : Bytes->size());
    DiagnosticEngine Engine = verifyBytes(Variant);
    const Diagnostic *D = firstDiag(Engine, checks::ArchiveHeader);
    ASSERT_NE(D, nullptr) << "dcg field at +" << Field;
    EXPECT_EQ(D->Location, "dcg extent");
    EXPECT_EQ(D->ByteOffset, PrefixSize);
  }
}

//===----------------------------------------------------------------------===//
// Index-layer corruptions.
//===----------------------------------------------------------------------===//

TEST_F(VerifyCorruption, IndexRowPastEofIsAnIndexBoundsError) {
  const size_t FunctionCount = Original->Functions.size();
  ASSERT_GT(FunctionCount, 0u);
  for (size_t F : {size_t(0), FunctionCount / 2, FunctionCount - 1}) {
    size_t Row = IndexStart + F * IndexRowSize;
    // Offset past EOF, length past EOF, and uint64 extent wrap-around.
    for (int Mode = 0; Mode < 3; ++Mode) {
      std::vector<uint8_t> Variant = *Bytes;
      if (Mode == 0) {
        writeLe64(Variant, Row, Bytes->size() + 1000);
      } else if (Mode == 1) {
        writeLe64(Variant, Row + 8, Bytes->size());
      } else {
        writeLe64(Variant, Row, ~uint64_t(0) - 8);
        writeLe64(Variant, Row + 8, 1000);
      }
      DiagnosticEngine Engine = verifyBytes(Variant);
      const Diagnostic *D = firstDiag(Engine, checks::ArchiveIndexBounds);
      ASSERT_NE(D, nullptr) << "row " << F << " mode " << Mode;
      EXPECT_EQ(D->ByteOffset, Row) << "row " << F << " mode " << Mode;
      EXPECT_EQ(D->Location, "index row " + std::to_string(F));
    }
  }
}

TEST_F(VerifyCorruption, OverlappingExtentsAreAnIndexBoundsError) {
  // Point one block's extent into another's bytes. Pick two non-empty
  // rows and alias the second onto the first.
  const size_t FunctionCount = Original->Functions.size();
  size_t A = FunctionCount, B = FunctionCount;
  for (size_t F = 0; F < FunctionCount; ++F) {
    if (readLe64(*Bytes, IndexStart + F * IndexRowSize + 8) == 0)
      continue;
    if (A == FunctionCount)
      A = F;
    else if (B == FunctionCount)
      B = F;
  }
  ASSERT_LT(B, FunctionCount) << "fixture lacks two non-empty blocks";
  std::vector<uint8_t> Variant = *Bytes;
  size_t RowA = IndexStart + A * IndexRowSize;
  size_t RowB = IndexStart + B * IndexRowSize;
  writeLe64(Variant, RowB, readLe64(*Bytes, RowA) + 1);
  DiagnosticEngine Engine = verifyBytes(Variant);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveIndexBounds))
      << renderDiagnosticsText(Engine);
}

TEST_F(VerifyCorruption, FrequencyOrderViolationWarns) {
  // Inflate the call-count field of a row that is not first in file order
  // past every other row's count: walking blocks by offset, counts now
  // increase at that row, breaking the most-frequent-first layout. (The
  // drift between index and block call counts also fires
  // twpp-archive-block-decode; the glob isolates the layout warning.)
  const size_t FunctionCount = Original->Functions.size();
  ASSERT_GE(FunctionCount, 2u);
  size_t First = 0;
  uint64_t MaxCalls = 0;
  for (size_t F = 0; F < FunctionCount; ++F) {
    size_t Row = IndexStart + F * IndexRowSize;
    if (readLe64(*Bytes, Row) < readLe64(*Bytes, IndexStart + First * IndexRowSize))
      First = F;
    MaxCalls = std::max(MaxCalls, readLe64(*Bytes, Row + 16));
  }
  size_t Victim = First == 0 ? 1 : 0;
  std::vector<uint8_t> Variant = *Bytes;
  writeLe64(Variant, IndexStart + Victim * IndexRowSize + 16, MaxCalls + 1);
  DiagnosticEngine Engine = verifyBytes(Variant, "twpp-archive-index-order");
  const Diagnostic *D = firstDiag(Engine, checks::ArchiveIndexOrder);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Sev, Severity::Warning);
}

//===----------------------------------------------------------------------===//
// Block and DCG payload corruptions.
//===----------------------------------------------------------------------===//

TEST_F(VerifyCorruption, TruncatedFunctionBlockIsABlockDecodeError) {
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount;
  for (size_t F = 0; F < FunctionCount; ++F)
    if (readLe64(*Bytes, IndexStart + F * IndexRowSize + 8) > 4) {
      Victim = F;
      break;
    }
  ASSERT_LT(Victim, FunctionCount) << "fixture has no non-trivial block";
  size_t Row = IndexStart + Victim * IndexRowSize;
  uint64_t Length = readLe64(*Bytes, Row + 8);
  for (uint64_t Cut : {Length / 2, Length - 1}) {
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, Row + 8, Cut);
    DiagnosticEngine Engine = verifyBytes(Variant);
    EXPECT_TRUE(hasCheck(Engine, checks::ArchiveBlockDecode))
        << "block cut to " << Cut << ": " << renderDiagnosticsText(Engine);
  }
}

TEST_F(VerifyCorruption, CallCountDriftIsABlockDecodeError) {
  // Index call count no longer matching the decoded table is the one
  // index-vs-block cross check the reader itself never performs.
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount;
  for (size_t F = 0; F < FunctionCount; ++F)
    if (readLe64(*Bytes, IndexStart + F * IndexRowSize + 16) > 0) {
      Victim = F;
      break;
    }
  ASSERT_LT(Victim, FunctionCount);
  std::vector<uint8_t> Variant = *Bytes;
  size_t Row = IndexStart + Victim * IndexRowSize;
  writeLe64(Variant, Row + 16, readLe64(*Bytes, Row + 16) + 1);
  DiagnosticEngine Engine = verifyBytes(Variant);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveBlockDecode))
      << renderDiagnosticsText(Engine);
}

TEST_F(VerifyCorruption, BitFlippedDcgIsNamedOrDecodesDifferently) {
  uint64_t DcgOffset = readLe64(*Bytes, PrefixSize);
  uint64_t DcgLength = readLe64(*Bytes, PrefixSize + 8);
  ASSERT_GT(DcgLength, 0u);
  Rng R(7);
  int Caught = 0;
  for (int Case = 0; Case < 24; ++Case) {
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(DcgOffset + R.nextBelow(DcgLength));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    DiagnosticEngine Engine = verifyBytes(Variant);
    if (!Engine.clean()) {
      ++Caught;
      continue;
    }
    // The verifier absorbed the flip: the stream must still decode (to a
    // graph that passes every consistency check) yet differ from the
    // original — a silent no-op flip would mean the check ran on stale
    // bytes.
    std::string Path = writeVariant(Variant, "dcg_" + std::to_string(Case));
    ArchiveReader Reader;
    ASSERT_TRUE(Reader.open(Path));
    DynamicCallGraph Dcg;
    ASSERT_TRUE(Reader.readDcg(Dcg)) << "clean verify but unreadable DCG";
    EXPECT_NE(Dcg, Original->Dcg) << "flip at " << At << " was a no-op";
  }
  // Same density expectation as the reader-level test: most flips are
  // detected outright.
  EXPECT_GE(Caught, 12);
}

TEST_F(VerifyCorruption, BitFlippedBlockIsNamedOrDecodesDifferently) {
  const size_t FunctionCount = Original->Functions.size();
  Rng R(11);
  for (int Case = 0; Case < 24; ++Case) {
    size_t F = R.nextBelow(FunctionCount);
    size_t Row = IndexStart + F * IndexRowSize;
    uint64_t Offset = readLe64(*Bytes, Row);
    uint64_t Length = readLe64(*Bytes, Row + 8);
    if (Length == 0)
      continue;
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(Offset + R.nextBelow(Length));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    DiagnosticEngine Engine = verifyBytes(Variant);
    if (!Engine.clean())
      continue;
    std::string Path = writeVariant(Variant, "blk_" + std::to_string(Case));
    ArchiveReader Reader;
    ASSERT_TRUE(Reader.open(Path));
    TwppFunctionTable Table;
    ASSERT_TRUE(Reader.extractFunction(static_cast<FunctionId>(F), Table))
        << "clean verify but undecodable block";
    EXPECT_NE(Table, Original->Functions[F])
        << "flip at " << At << " was a no-op";
  }
}

//===----------------------------------------------------------------------===//
// ArchiveReader::lastError() — the decode-error hardening contract.
// Parameterized over the read path: the named diagnostic (check id,
// location, byte offset) must be the same whether the archive was read
// buffered or memory-mapped.
//===----------------------------------------------------------------------===//

class VerifyCorruptionMode : public VerifyCorruption,
                             public ::testing::WithParamInterface<ReadPath> {
protected:
  /// The two read-path instances run as concurrent ctest processes; the
  /// parameter suffix keeps their variant files from racing each other.
  std::string writeVariant(const std::vector<uint8_t> &Variant,
                           const std::string &Name) {
    return VerifyCorruption::writeVariant(
        Variant, Name + "_" + fixtures::readPathName(GetParam()));
  }

  bool open(ArchiveReader &Reader, const std::string &Path) {
    return openOn(Reader, Path, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(IoModes, VerifyCorruptionMode,
                         ::testing::Values(ReadPath::Buffered, ReadPath::Mmap),
                         [](const ::testing::TestParamInfo<ReadPath> &Info) {
                           return fixtures::readPathName(Info.param);
                         });

TEST_P(VerifyCorruptionMode, LastErrorNamesMissingFile) {
  ArchiveReader Reader;
  ASSERT_FALSE(open(Reader, ::testing::TempDir() + "/verify_missing.twpp"));
  EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveHeader);
  EXPECT_EQ(Reader.lastError().Location, "header");
  EXPECT_EQ(Reader.lastError().ByteOffset, 0u);
}

TEST_P(VerifyCorruptionMode, LastErrorNamesBadMagicAndVersion) {
  for (size_t Byte : {size_t(0), size_t(4)}) {
    std::vector<uint8_t> Variant = *Bytes;
    Variant[Byte] ^= 0xFF;
    std::string Path = writeVariant(Variant, "hdr_" + std::to_string(Byte));
    ArchiveReader Reader;
    ASSERT_FALSE(open(Reader, Path));
    EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveHeader);
    EXPECT_EQ(Reader.lastError().Location, "header");
    EXPECT_EQ(Reader.lastError().ByteOffset, Byte);
    EXPECT_EQ(Reader.lastError().Sev, Severity::Error);
  }
}

TEST_P(VerifyCorruptionMode, LastErrorNamesIndexRowAndOffset) {
  const size_t FunctionCount = Original->Functions.size();
  size_t F = FunctionCount / 2;
  size_t Row = IndexStart + F * IndexRowSize;
  std::vector<uint8_t> Variant = *Bytes;
  writeLe64(Variant, Row, Bytes->size() + 1000);
  std::string Path = writeVariant(Variant, "idxerr");
  ArchiveReader Reader;
  ASSERT_FALSE(open(Reader, Path));
  EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveIndexBounds);
  EXPECT_EQ(Reader.lastError().Location, "index row " + std::to_string(F));
  EXPECT_EQ(Reader.lastError().ByteOffset, Row);
}

TEST_P(VerifyCorruptionMode, LastErrorNamesTruncatedBlock) {
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount;
  for (size_t F = 0; F < FunctionCount; ++F)
    if (readLe64(*Bytes, IndexStart + F * IndexRowSize + 8) > 4) {
      Victim = F;
      break;
    }
  ASSERT_LT(Victim, FunctionCount);
  size_t Row = IndexStart + Victim * IndexRowSize;
  uint64_t Offset = readLe64(*Bytes, Row);
  std::vector<uint8_t> Variant = *Bytes;
  writeLe64(Variant, Row + 8, readLe64(*Bytes, Row + 8) / 2);
  std::string Path = writeVariant(Variant, "cuterr");
  ArchiveReader Reader;
  ASSERT_TRUE(open(Reader, Path));
  TwppFunctionTable Table;
  ASSERT_FALSE(Reader.extractFunction(static_cast<FunctionId>(Victim), Table));
  EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveBlockDecode);
  EXPECT_EQ(Reader.lastError().Location,
            "function " + std::to_string(Victim) + " block");
  EXPECT_EQ(Reader.lastError().ByteOffset, Offset);
}

TEST_P(VerifyCorruptionMode, LastErrorNamesOutOfRangeFunction) {
  std::string Path = writeVariant(*Bytes, "rangeerr");
  ArchiveReader Reader;
  ASSERT_TRUE(open(Reader, Path));
  TwppFunctionTable Table;
  ASSERT_FALSE(Reader.extractFunction(
      static_cast<FunctionId>(Original->Functions.size()), Table));
  EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveIndexBounds);
  EXPECT_EQ(Reader.lastError().Location, "index");
  EXPECT_EQ(Reader.lastError().ByteOffset, NoByteOffset);
}

TEST_P(VerifyCorruptionMode, LastErrorNamesUndecodableDcg) {
  // Find a flip the reader's own decoder rejects and assert the
  // diagnostic fields; seed 7 mirrors the robustness suite, where at
  // least half the flips are rejected.
  uint64_t DcgOffset = readLe64(*Bytes, PrefixSize);
  uint64_t DcgLength = readLe64(*Bytes, PrefixSize + 8);
  Rng R(7);
  bool Checked = false;
  for (int Case = 0; Case < 24 && !Checked; ++Case) {
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(DcgOffset + R.nextBelow(DcgLength));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    std::string Path = writeVariant(Variant, "dcgerr_" + std::to_string(Case));
    ArchiveReader Reader;
    ASSERT_TRUE(open(Reader, Path));
    DynamicCallGraph Dcg;
    if (Reader.readDcg(Dcg))
      continue;
    EXPECT_EQ(Reader.lastError().CheckId, checks::ArchiveDcgDecode);
    EXPECT_EQ(Reader.lastError().Location, "dcg");
    EXPECT_EQ(Reader.lastError().ByteOffset, DcgOffset);
    Checked = true;
  }
  EXPECT_TRUE(Checked) << "no flip was rejected by the DCG decoder";
}

//===----------------------------------------------------------------------===//
// Clean bench workloads (the paper's Table 2/3 programs).
//===----------------------------------------------------------------------===//

class WorkloadVerify : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadVerify, BenchArchiveVerifiesClean) {
  WorkloadProfile Profile = paperProfiles()[GetParam()];
  RawTrace Trace = generateWorkloadTrace(Profile);
  std::vector<uint8_t> Archive = encodeArchive(compactWpp(Trace));
  DiagnosticEngine Engine = verifyBytes(Archive);
  EXPECT_TRUE(Engine.empty())
      << Profile.Name << ": " << renderDiagnosticsText(Engine);
}

INSTANTIATE_TEST_SUITE_P(PaperProfiles, WorkloadVerify,
                         ::testing::Range(size_t(0), size_t(5)),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return paperProfiles()[Info.param].Name.substr(4);
                         });

} // namespace
