//===- tests/ArchiveRecoveryTest.cpp - twpp_recover salvage ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The salvage contract of verify/Recover.h over the same mutation
/// catalog ArchiveCorruptionTest throws at the reader: truncations,
/// header/index/DCG patches and random bit flips. For every damaged
/// input, salvageArchive must either produce a verifier-clean archive
/// (Salvaged == true) or report failure with a named error-severity
/// diagnostic — and it must never crash, whatever the bytes.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Random.h"
#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"
#include "verify/Recover.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"

#include "TestTraces.h"

#include <cstdio>
#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::recover;

namespace {

constexpr size_t PrefixSize = 12;
constexpr size_t IndexStart = 28;
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

/// The salvage contract, asserted for one (possibly damaged) input.
void expectSalvageContract(const std::vector<uint8_t> &Input,
                           const std::string &What) {
  std::vector<uint8_t> Out;
  SalvageReport Report;
  bool Salvaged = salvageArchive(Input, Out, Report);
  EXPECT_EQ(Salvaged, Report.Salvaged) << What;
  if (Salvaged) {
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(Out, Engine);
    EXPECT_TRUE(Engine.clean())
        << What << ": salvage declared success but the output fails "
        << "verification\n"
        << verify::renderDiagnosticsText(Engine);
  } else {
    EXPECT_TRUE(Report.fatal())
        << What << ": salvage failed without naming an error diagnostic";
    EXPECT_TRUE(Out.empty()) << What;
  }
}

class ArchiveRecovery : public ::testing::Test {
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

  static TwppWpp *Original;
  static std::vector<uint8_t> *Bytes;
};

TwppWpp *ArchiveRecovery::Original = nullptr;
std::vector<uint8_t> *ArchiveRecovery::Bytes = nullptr;

TEST_F(ArchiveRecovery, IntactArchiveRoundTripsLosslessly) {
  std::vector<uint8_t> Out;
  SalvageReport Report;
  ASSERT_TRUE(salvageArchive(*Bytes, Out, Report))
      << renderSalvageReportText(Report);
  EXPECT_EQ(Out, *Bytes); // canonical encoding: lossless means identical
  EXPECT_EQ(Report.FunctionsKept, Report.FunctionsTotal);
  EXPECT_EQ(Report.FunctionsDropped, 0u);
  EXPECT_EQ(Report.CallsLost, 0u);
  EXPECT_TRUE(Report.DcgRecovered);
  EXPECT_FALSE(Report.fatal());
}

TEST_F(ArchiveRecovery, TruncationAtEveryStride) {
  // Every prefix length (stride 3 to bound runtime, plus the corners)
  // must satisfy the contract; short prefixes additionally must fail
  // with twpp-recover-input.
  for (size_t Cut = 0; Cut <= Bytes->size(); Cut += 3) {
    std::vector<uint8_t> Truncated(Bytes->begin(),
                                   Bytes->begin() + static_cast<long>(Cut));
    expectSalvageContract(Truncated, "truncated to " + std::to_string(Cut));
  }
  std::vector<uint8_t> Empty;
  SalvageReport Report;
  std::vector<uint8_t> Out;
  EXPECT_FALSE(salvageArchive(Empty, Out, Report));
  ASSERT_FALSE(Report.Diagnostics.empty());
  EXPECT_EQ(Report.Diagnostics.front().CheckId,
            verify::checks::RecoverInput);
}

TEST_F(ArchiveRecovery, BadMagicAndVersionAreFatal) {
  for (size_t Byte : {size_t(0), size_t(4)}) {
    std::vector<uint8_t> Variant = *Bytes;
    Variant[Byte] ^= 0xFF;
    std::vector<uint8_t> Out;
    SalvageReport Report;
    EXPECT_FALSE(salvageArchive(Variant, Out, Report))
        << "flipped header byte " << Byte;
    EXPECT_TRUE(Report.fatal());
    ASSERT_FALSE(Report.Diagnostics.empty());
    EXPECT_EQ(Report.Diagnostics.front().CheckId,
              verify::checks::RecoverInput);
  }
}

TEST_F(ArchiveRecovery, ThreadAwareArchivesAreRefused) {
  // Salvage rebuilds single-threaded archives only: a version-3 input is
  // refused at the version field, not half-salvaged without its trailer.
  ConcurrentWpp Wpp = compactConcurrentWpp(
      generateConcurrentTrace(testConcurrentProfiles()[0]));
  std::vector<uint8_t> Out;
  SalvageReport Report;
  EXPECT_FALSE(salvageArchive(encodeConcurrentArchive(Wpp), Out, Report));
  EXPECT_TRUE(Out.empty());
  ASSERT_FALSE(Report.Diagnostics.empty());
  const verify::Diagnostic &D = Report.Diagnostics.front();
  EXPECT_EQ(D.CheckId, verify::checks::RecoverInput);
  EXPECT_EQ(D.Sev, verify::Severity::Error);
  EXPECT_EQ(D.Location, "header");
  EXPECT_EQ(D.ByteOffset, 4u);
}

TEST_F(ArchiveRecovery, HugeFunctionCountIsClamped) {
  // A corrupt count must not drive allocation; salvage clamps it to the
  // rows the file physically holds and proceeds.
  std::vector<uint8_t> Variant = *Bytes;
  Variant[8] = 0xFF;
  Variant[9] = 0xFF;
  Variant[10] = 0xFF;
  Variant[11] = 0x7F;
  expectSalvageContract(Variant, "huge function count");
  std::vector<uint8_t> Out;
  SalvageReport Report;
  salvageArchive(Variant, Out, Report);
  EXPECT_LE(Report.FunctionsTotal,
            (Bytes->size() - IndexStart) / IndexRowSize);
}

TEST_F(ArchiveRecovery, CorruptIndexRowDropsOnlyThatFunction) {
  const size_t FunctionCount = Original->Functions.size();
  for (size_t F : {size_t(0), FunctionCount / 2, FunctionCount - 1}) {
    size_t Row = IndexStart + F * IndexRowSize;
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, Row, Bytes->size() + 1000); // offset past EOF
    std::vector<uint8_t> Out;
    SalvageReport Report;
    if (!salvageArchive(Variant, Out, Report)) {
      // Allowed only if the loss is not isolatable (e.g. the DCG now
      // disagrees); the failure must still be named.
      EXPECT_TRUE(Report.fatal()) << "row " << F;
      continue;
    }
    EXPECT_EQ(Report.FunctionsDropped, 1u) << "row " << F;
    ASSERT_EQ(Report.DroppedFunctions.size(), 1u);
    EXPECT_EQ(Report.DroppedFunctions[0], static_cast<uint32_t>(F));
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(Out, Engine);
    EXPECT_TRUE(Engine.clean()) << "row " << F;
  }
  // Extent overflow must not wrap past the bounds check.
  std::vector<uint8_t> Variant = *Bytes;
  writeLe64(Variant, IndexStart, ~uint64_t(0) - 8);
  writeLe64(Variant, IndexStart + 8, 1000);
  expectSalvageContract(Variant, "index extent overflow");
}

TEST_F(ArchiveRecovery, TornDcgIsFatalWhenCallsSurvive) {
  std::vector<uint8_t> Variant = *Bytes;
  writeLe64(Variant, PrefixSize, Bytes->size() + 1); // DCG offset past EOF
  std::vector<uint8_t> Out;
  SalvageReport Report;
  EXPECT_FALSE(salvageArchive(Variant, Out, Report));
  bool SawDcgError = false;
  for (const verify::Diagnostic &D : Report.Diagnostics)
    if (D.CheckId == verify::checks::RecoverDcg &&
        D.Sev == verify::Severity::Error)
      SawDcgError = true;
  EXPECT_TRUE(SawDcgError) << renderSalvageReportText(Report);
}

TEST_F(ArchiveRecovery, BitFlipSweepNeverCrashes) {
  // 300 random single-bit flips anywhere in the file. The contract must
  // hold for every one of them.
  Rng R(4242);
  for (int Case = 0; Case < 300; ++Case) {
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(R.nextBelow(Variant.size()));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    expectSalvageContract(Variant, "bit flip at byte " +
                                       std::to_string(At));
  }
}

TEST_F(ArchiveRecovery, BlockFlipDropsFunctionAndReportsLoss) {
  // Deterministically corrupt the largest function block so its decode
  // fails (0xFF is an endless varint continuation), and check the loss
  // accounting.
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount;
  uint64_t VictimLength = 4; // skip trivial (empty-table) blocks
  for (size_t F = 0; F < FunctionCount; ++F) {
    uint64_t Length = readLe64(*Bytes, IndexStart + F * IndexRowSize + 8);
    if (Length > VictimLength) {
      Victim = F;
      VictimLength = Length;
    }
  }
  ASSERT_LT(Victim, FunctionCount) << "fixture has no non-trivial block";
  size_t Row = IndexStart + Victim * IndexRowSize;
  uint64_t Offset = readLe64(*Bytes, Row);
  std::vector<uint8_t> Variant = *Bytes;
  for (uint64_t I = 0; I < VictimLength; ++I)
    Variant[Offset + I] = 0xFF;
  std::vector<uint8_t> Out;
  SalvageReport Report;
  if (salvageArchive(Variant, Out, Report)) {
    EXPECT_GE(Report.FunctionsDropped, 1u);
    EXPECT_GT(Report.CallsLost, 0u);
    bool Named = false;
    for (const verify::Diagnostic &D : Report.Diagnostics)
      if (D.CheckId == verify::checks::RecoverBlock ||
          D.CheckId == verify::checks::RecoverIndexRow)
        Named = true;
    EXPECT_TRUE(Named) << renderSalvageReportText(Report);
  } else {
    EXPECT_TRUE(Report.fatal());
  }
}

TEST_F(ArchiveRecovery, SalvageFileWritesVerifierCleanArchive) {
  std::string In = ::testing::TempDir() + "/salvage_in.twpp";
  std::string Outp = ::testing::TempDir() + "/salvage_out.twpp";
  std::vector<uint8_t> Variant = *Bytes;
  // Tear the tail into the last function block / DCG region.
  Variant.resize(Variant.size() - Variant.size() / 4);
  {
    fault::ScopedFaultSuspend Shield;
    ASSERT_TRUE(writeFileBytes(In, Variant).ok());
  }
  SalvageReport Report;
  if (salvageArchiveFile(In, Outp, Report)) {
    fault::ScopedFaultSuspend Shield;
    std::vector<uint8_t> Salvaged;
    ASSERT_TRUE(readFileBytes(Outp, Salvaged).ok());
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(Salvaged, Engine);
    EXPECT_TRUE(Engine.clean())
        << verify::renderDiagnosticsText(Engine);
    EXPECT_EQ(Report.OutputBytes, Salvaged.size());
  } else {
    EXPECT_TRUE(Report.fatal()) << renderSalvageReportText(Report);
  }
  std::remove(In.c_str());
  std::remove(Outp.c_str());
}

TEST_F(ArchiveRecovery, MissingInputFileIsReported) {
  SalvageReport Report;
  EXPECT_FALSE(salvageArchiveFile(::testing::TempDir() +
                                      "/no_such_archive.twpp",
                                  ::testing::TempDir() + "/out.twpp",
                                  Report));
  ASSERT_FALSE(Report.Diagnostics.empty());
  EXPECT_EQ(Report.Diagnostics.front().CheckId,
            verify::checks::RecoverInput);
}

TEST_F(ArchiveRecovery, ReportRenderersAreWellFormed) {
  std::vector<uint8_t> Variant(Bytes->begin(), Bytes->begin() + 40);
  std::vector<uint8_t> Out;
  SalvageReport Report;
  salvageArchive(Variant, Out, Report);
  std::string Text = renderSalvageReportText(Report);
  EXPECT_NE(Text.find("input: "), std::string::npos);
}

TEST_F(ArchiveRecovery, DroppedFunctionIdListIsCapped) {
  // Drop every function (torn file past the index): the id list must be
  // bounded even when the count is not.
  size_t IndexEnd = IndexStart + Original->Functions.size() * IndexRowSize;
  std::vector<uint8_t> Variant(Bytes->begin(),
                               Bytes->begin() +
                                   static_cast<long>(IndexEnd));
  std::vector<uint8_t> Out;
  SalvageReport Report;
  salvageArchive(Variant, Out, Report);
  EXPECT_LE(Report.DroppedFunctions.size(),
            SalvageReport::DroppedFunctionIdCap);
}

} // namespace
