//===- tests/ArchiveCorruptionTest.cpp - corrupt-archive robustness --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzz-style robustness tests: an ArchiveReader fed truncated, patched
/// or bit-flipped archive files must fail cleanly (open/extractFunction/
/// readDcg returning false) or, where a flip happens to decode, produce a
/// well-formed wrong result — never crash, hang, or over-allocate.
///
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "support/Random.h"
#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"
#include "workloads/Concurrent.h"
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
using fixtures::openOn;
using fixtures::ReadPath;

namespace {

// Mirrors the layout constants in Archive.cpp (wpp/Archive.h documents
// them): 12-byte prefix, 16 bytes of DCG extent fields, 24-byte index
// rows. The tests patch raw offsets, so drift here must fail loudly —
// LayoutAssumptions below pins the values.
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

/// A healthy archive (bytes + decoded form) shared by every test. The
/// fixture is parameterized over the read path: every corruption must be
/// caught identically on the buffered fallback and the zero-copy (mmap)
/// path.
class ArchiveCorruption : public ::testing::TestWithParam<ReadPath> {
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

  /// Writes \p Variant to a temp file and returns its path.
  /// Distinguishes the read-path instances of one test, which run as
  /// concurrent ctest processes and must not race on variant files.
  /// The non-parameterized differential fixture overrides this —
  /// GetParam() would abort there.
  virtual std::string variantSuffix() {
    return GetParam() == ReadPath::Mmap ? "_mmap" : "_buffered";
  }

  std::string writeVariant(const std::vector<uint8_t> &Variant,
                           const std::string &Name) {
    std::string Path =
        ::testing::TempDir() + "/corrupt_" + Name + variantSuffix() + ".twpp";
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

TwppWpp *ArchiveCorruption::Original = nullptr;
std::vector<uint8_t> *ArchiveCorruption::Bytes = nullptr;

INSTANTIATE_TEST_SUITE_P(IoModes, ArchiveCorruption,
                         ::testing::Values(ReadPath::Buffered, ReadPath::Mmap),
                         [](const ::testing::TestParamInfo<ReadPath> &Info) {
                           return fixtures::readPathName(Info.param);
                         });

/// Path-pair differential tests (open both readers themselves, so they
/// are not parameterized); shares the healthy archive via inheritance.
class ArchiveCorruptionDifferential : public ArchiveCorruption {
protected:
  std::string variantSuffix() override { return "_diff"; }

  struct Case {
    const char *Name;
    std::vector<uint8_t> Variant;
  };

  /// Representative corruptions, each of which open() must reject.
  std::vector<Case> corpus() const {
    std::vector<Case> Cases;
    Cases.push_back({"empty", {}});
    Cases.push_back(
        {"short_header", std::vector<uint8_t>(Bytes->begin(),
                                              Bytes->begin() + 20)});
    Cases.push_back({"bad_magic", *Bytes});
    Cases.back().Variant[0] ^= 0xFF;
    Cases.push_back({"index_past_eof", *Bytes});
    writeLe64(Cases.back().Variant, IndexStart, Bytes->size() + 1000);
    Cases.push_back({"dcg_past_eof", *Bytes});
    writeLe64(Cases.back().Variant, PrefixSize, Bytes->size() + 1);
    return Cases;
  }

  /// The version-2 trailer corruptions: an unknown tag, a trailer cut
  /// into its last payload, and a trailer without the THRD record.
  static std::vector<Case> trailerCorpus() {
    ConcurrentWpp Wpp = compactConcurrentWpp(
        generateConcurrentTrace(testConcurrentProfiles()[0]));
    std::vector<uint8_t> V2 = encodeConcurrentArchive(Wpp);
    size_t TrailerAt = static_cast<size_t>(readLe64(V2, PrefixSize) +
                                           readLe64(V2, PrefixSize + 8));
    std::vector<Case> Cases;
    Cases.push_back({"v2_unknown_tag", V2});
    for (size_t I = 0; I < 4; ++I)
      Cases.back().Variant[TrailerAt + I] = 'X';
    Cases.push_back({"v2_truncated_trailer", V2});
    Cases.back().Variant.resize(V2.size() - 7);
    // The encoder writes THRD first: cut its 12-byte record head and
    // payload out of the trailer.
    Cases.push_back({"v2_missing_thrd", V2});
    std::vector<uint8_t> &Cut = Cases.back().Variant;
    size_t ThrdEnd = TrailerAt + 12 + readLe64(V2, TrailerAt + 4);
    Cut.erase(Cut.begin() + static_cast<long>(TrailerAt),
              Cut.begin() + static_cast<long>(ThrdEnd));
    return Cases;
  }
};

TEST_P(ArchiveCorruption, LayoutAssumptions) {
  // Sanity-pin the layout the other tests patch against: magic "TWPP"
  // little-endian at byte 0, DCG extent fields at 12, index at 28.
  ASSERT_GE(Bytes->size(), IndexStart);
  EXPECT_EQ((*Bytes)[0], 0x50); // 'P'
  EXPECT_EQ((*Bytes)[1], 0x50); // 'P'
  EXPECT_EQ((*Bytes)[2], 0x57); // 'W'
  EXPECT_EQ((*Bytes)[3], 0x54); // 'T'
  uint64_t DcgOffset = readLe64(*Bytes, PrefixSize);
  uint64_t DcgLength = readLe64(*Bytes, PrefixSize + 8);
  EXPECT_LE(DcgOffset + DcgLength, Bytes->size());
  EXPECT_GT(DcgLength, 0u);
}

TEST_P(ArchiveCorruption, SanityHealthyArchiveRoundTrips) {
  std::string Path = writeVariant(*Bytes, "healthy");
  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  TwppWpp Back;
  ASSERT_TRUE(Reader.readAll(Back));
  EXPECT_EQ(Back, *Original);
}

TEST_P(ArchiveCorruption, TruncatedHeaderFailsOpen) {
  // Every prefix shorter than header + DCG fields + full index must be
  // rejected at open(); a zero-byte file included.
  size_t IndexEnd = IndexStart + Original->Functions.size() * IndexRowSize;
  for (size_t Length : {size_t(0), size_t(1), size_t(4), size_t(11),
                        PrefixSize, size_t(20), IndexStart - 1, IndexStart,
                        IndexStart + 5, IndexEnd - 1}) {
    std::vector<uint8_t> Truncated(Bytes->begin(),
                                   Bytes->begin() +
                                       static_cast<long>(Length));
    std::string Path =
        writeVariant(Truncated, "trunc_" + std::to_string(Length));
    ArchiveReader Reader;
    EXPECT_FALSE(openOn(Reader, Path, GetParam()))
        << "prefix length " << Length;
  }
}

TEST_P(ArchiveCorruption, BadMagicOrVersionFailsOpen) {
  for (size_t Byte : {size_t(0), size_t(4)}) {
    std::vector<uint8_t> Variant = *Bytes;
    Variant[Byte] ^= 0xFF;
    std::string Path = writeVariant(Variant, "hdr_" + std::to_string(Byte));
    ArchiveReader Reader;
    EXPECT_FALSE(openOn(Reader, Path, GetParam()))
        << "flipped header byte " << Byte;
  }
}

TEST_P(ArchiveCorruption, HugeFunctionCountFailsOpen) {
  // A function count whose index alone would exceed the file must be
  // rejected before any allocation proportional to it.
  std::vector<uint8_t> Variant = *Bytes;
  Variant[8] = 0xFF;
  Variant[9] = 0xFF;
  Variant[10] = 0xFF;
  Variant[11] = 0x7F;
  std::string Path = writeVariant(Variant, "hugecount");
  ArchiveReader Reader;
  EXPECT_FALSE(openOn(Reader, Path, GetParam()));
}

TEST_P(ArchiveCorruption, IndexRowPastEofFailsOpen) {
  const size_t FunctionCount = Original->Functions.size();
  ASSERT_GT(FunctionCount, 0u);
  for (size_t F : {size_t(0), FunctionCount / 2, FunctionCount - 1}) {
    size_t Row = IndexStart + F * IndexRowSize;
    {
      // Offset beyond the file.
      std::vector<uint8_t> Variant = *Bytes;
      writeLe64(Variant, Row, Bytes->size() + 1000);
      std::string Path =
          writeVariant(Variant, "idx_off_" + std::to_string(F));
      ArchiveReader Reader;
      EXPECT_FALSE(openOn(Reader, Path, GetParam()))
          << "row " << F << " offset past EOF";
    }
    {
      // Length running past the end of the file.
      std::vector<uint8_t> Variant = *Bytes;
      writeLe64(Variant, Row + 8, Bytes->size());
      std::string Path =
          writeVariant(Variant, "idx_len_" + std::to_string(F));
      ArchiveReader Reader;
      EXPECT_FALSE(openOn(Reader, Path, GetParam()))
          << "row " << F << " length past EOF";
    }
    {
      // Offset + length overflowing uint64 must not wrap past the check.
      std::vector<uint8_t> Variant = *Bytes;
      writeLe64(Variant, Row, ~uint64_t(0) - 8);
      writeLe64(Variant, Row + 8, 1000);
      std::string Path =
          writeVariant(Variant, "idx_wrap_" + std::to_string(F));
      ArchiveReader Reader;
      EXPECT_FALSE(openOn(Reader, Path, GetParam()))
          << "row " << F << " extent overflow";
    }
  }
}

TEST_P(ArchiveCorruption, DcgExtentPastEofFailsOpen) {
  {
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, PrefixSize, Bytes->size() + 1);
    std::string Path = writeVariant(Variant, "dcg_off");
    ArchiveReader Reader;
    EXPECT_FALSE(openOn(Reader, Path, GetParam()));
  }
  {
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, PrefixSize + 8, Bytes->size());
    std::string Path = writeVariant(Variant, "dcg_len");
    ArchiveReader Reader;
    EXPECT_FALSE(openOn(Reader, Path, GetParam()));
  }
}

TEST_P(ArchiveCorruption, BitFlippedDcgFailsOrDiffers) {
  // Bit flips inside the LZW-compressed DCG: readDcg must either reject
  // the stream or decode to something well-formed; it must never crash.
  // Most flips corrupt the LZW code stream or the DCG framing and are
  // rejected; a rare flip may survive as a different graph.
  uint64_t DcgOffset = readLe64(*Bytes, PrefixSize);
  uint64_t DcgLength = readLe64(*Bytes, PrefixSize + 8);
  ASSERT_GT(DcgLength, 0u);
  Rng R(7);
  int Rejected = 0;
  for (int Case = 0; Case < 24; ++Case) {
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(DcgOffset + R.nextBelow(DcgLength));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    std::string Path = writeVariant(Variant, "dcg_" + std::to_string(Case));
    ArchiveReader Reader;
    // Index is intact; only the DCG is hit.
    ASSERT_TRUE(openOn(Reader, Path, GetParam()))
        << Reader.lastError().CheckId << ": " << Reader.lastError().Message
        << " (" << Reader.lastError().Location << ")";
    DynamicCallGraph Dcg;
    if (!Reader.readDcg(Dcg)) {
      ++Rejected;
      continue;
    }
    EXPECT_NE(Dcg, Original->Dcg) << "flip at " << At << " was a no-op";
  }
  // The stream is dense: the overwhelming majority of flips must be
  // detected outright, not silently absorbed.
  EXPECT_GE(Rejected, 12);
}

TEST_P(ArchiveCorruption, BitFlippedFunctionBlockFailsOrDiffers) {
  // Flips inside function blocks: extractFunction must reject or decode
  // to a (well-formed) different table, never crash or over-allocate.
  const size_t FunctionCount = Original->Functions.size();
  Rng R(11);
  for (int Case = 0; Case < 24; ++Case) {
    size_t F = R.nextBelow(FunctionCount);
    size_t Row = IndexStart + F * IndexRowSize;
    uint64_t Offset = readLe64(*Bytes, Row);
    uint64_t Length = readLe64(*Bytes, Row + 8);
    if (Length == 0)
      continue; // Never-called function, empty block: nothing to flip.
    std::vector<uint8_t> Variant = *Bytes;
    size_t At = static_cast<size_t>(Offset + R.nextBelow(Length));
    Variant[At] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
    std::string Path = writeVariant(Variant, "blk_" + std::to_string(Case));
    ArchiveReader Reader;
    ASSERT_TRUE(openOn(Reader, Path, GetParam()));
    TwppFunctionTable Table;
    if (Reader.extractFunction(static_cast<FunctionId>(F), Table)) {
      EXPECT_NE(Table, Original->Functions[F])
          << "flip at " << At << " was a no-op";
    }
  }
}

TEST_P(ArchiveCorruption, TruncatedFunctionBlockFailsExtract) {
  // Shorten a block via its index length: the decoder must hit the hard
  // end of the slice and reject, not read past it.
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount; // First function with a non-trivial block.
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
    std::string Path =
        writeVariant(Variant, "cutblk_" + std::to_string(Cut));
    ArchiveReader Reader;
    ASSERT_TRUE(openOn(Reader, Path, GetParam()));
    TwppFunctionTable Table;
    EXPECT_FALSE(
        Reader.extractFunction(static_cast<FunctionId>(Victim), Table))
        << "block cut to " << Cut << " of " << Length << " bytes";
  }
}

TEST_P(ArchiveCorruption, ExtractBeyondFunctionCountFails) {
  std::string Path = writeVariant(*Bytes, "range");
  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  TwppFunctionTable Table;
  EXPECT_FALSE(Reader.extractFunction(
      static_cast<FunctionId>(Original->Functions.size()), Table));
  EXPECT_FALSE(Reader.extractFunction(~FunctionId(0), Table));
}

TEST_P(ArchiveCorruption, OutOfRangeSeriesFailsExtract) {
  // One function, one trace: block 1 at the four timestamps of the series
  // 1 : 4294967293 : 1431655764. Its encoded values 1, 4294967293,
  // -1431655764 take the same varint widths as 1, 4294967297,
  // -4294967296, a series whose values truncate to a zero-step run.
  // Patched in, that series must fail extraction with a named error.
  TwppTrace Trace;
  Trace.Length = 4;
  Trace.Blocks.emplace_back(
      1, TimestampSet::fromSorted({1, 1431655765, 2863311529, 4294967293}));
  ASSERT_EQ(Trace.Blocks[0].second.encodeSigned(),
            (std::vector<int64_t>{1, 4294967293, -1431655764}));
  TwppFunctionTable Table;
  Table.TraceStrings.push_back(std::move(Trace));
  Table.Dictionaries.emplace_back();
  Table.Traces.push_back({0, 0});
  Table.UseCounts.push_back(1);
  Table.CallCount = 1;
  TwppWpp Wpp;
  Wpp.Functions.push_back(std::move(Table));
  Wpp.Dcg.Nodes.emplace_back();
  Wpp.Dcg.Roots.push_back(0);
  std::vector<uint8_t> File = encodeArchive(Wpp);

  auto Encode = [](std::initializer_list<int64_t> Values) {
    ByteWriter Writer;
    for (int64_t Value : Values)
      Writer.writeVarInt(Value);
    return Writer.take();
  };
  std::vector<uint8_t> Good = Encode({1, 4294967293, -1431655764});
  std::vector<uint8_t> Bad = Encode({1, 4294967297, -4294967296});
  ASSERT_EQ(Good.size(), Bad.size());
  auto At = std::search(File.begin(), File.end(), Good.begin(), Good.end());
  ASSERT_NE(At, File.end());
  std::copy(Bad.begin(), Bad.end(), At);

  std::string Path = writeVariant(File, "series_range");
  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  TwppFunctionTable Back;
  EXPECT_FALSE(Reader.extractFunction(0, Back));
  EXPECT_EQ(Reader.lastError().CheckId, verify::checks::ArchiveBlockDecode);
  EXPECT_NE(Reader.lastError().Location.find("function 0"), std::string::npos)
      << Reader.lastError().Location;
}

TEST_F(ArchiveCorruptionDifferential, DiagnosticsIdenticalAcrossIoModes) {
  // Representative corruptions: the failure DIAGNOSTIC — check id,
  // location, message and byte offset — must be byte-identical whether
  // the archive was read buffered or memory-mapped. A divergence here
  // means the two paths take different validation routes.
  for (Case &C : corpus()) {
    std::string Path = writeVariant(C.Variant, std::string("diff_") + C.Name);
    ArchiveReader Buffered, Mapped;
    EXPECT_FALSE(openOn(Buffered, Path, ReadPath::Buffered)) << C.Name;
    EXPECT_FALSE(openOn(Mapped, Path, ReadPath::Mmap)) << C.Name;
    const verify::Diagnostic &A = Buffered.lastError();
    const verify::Diagnostic &B = Mapped.lastError();
    EXPECT_EQ(A.CheckId, B.CheckId) << C.Name;
    EXPECT_EQ(A.Location, B.Location) << C.Name;
    EXPECT_EQ(A.Message, B.Message) << C.Name;
    EXPECT_EQ(A.ByteOffset, B.ByteOffset) << C.Name;
  }
}

TEST_F(ArchiveCorruptionDifferential, ReaderAndVerifierNameTheSameDefect) {
  // The reader, the verifier and salvage share one layout decode, so the
  // defect open() fails on must be the one the verifier names first
  // under the same check id, at the same location and byte offset.
  std::vector<Case> Cases = corpus();
  for (Case &C : trailerCorpus())
    Cases.push_back(std::move(C));
  Cases.push_back({"truncated_index", std::vector<uint8_t>(
                                          Bytes->begin(),
                                          Bytes->begin() + IndexStart + 5)});
  for (const Case &C : Cases) {
    std::string Path = writeVariant(C.Variant, std::string("agree_") + C.Name);
    ArchiveReader Reader;
    ASSERT_FALSE(Reader.open(Path)) << C.Name;
    const verify::Diagnostic &Failure = Reader.lastError();
    verify::DiagnosticEngine Engine;
    verify::runArchiveBytesChecks(C.Variant, Engine);
    const verify::Diagnostic *Named = nullptr;
    for (const verify::Diagnostic &D : Engine.diagnostics())
      if (D.CheckId == Failure.CheckId) {
        Named = &D;
        break;
      }
    ASSERT_NE(Named, nullptr)
        << C.Name << ": the verifier never reports " << Failure.CheckId;
    EXPECT_EQ(Named->Location, Failure.Location) << C.Name;
    EXPECT_EQ(Named->ByteOffset, Failure.ByteOffset) << C.Name;
  }
}

TEST_F(ArchiveCorruptionDifferential, TruncatedBlockDecodeAgreesAcrossModes) {
  // Cut a function block's index length at every stride and compare
  // extractFunction outcomes AND diagnostics across modes.
  const size_t FunctionCount = Original->Functions.size();
  size_t Victim = FunctionCount;
  for (size_t F = 0; F < FunctionCount; ++F)
    if (readLe64(*Bytes, IndexStart + F * IndexRowSize + 8) > 8) {
      Victim = F;
      break;
    }
  ASSERT_LT(Victim, FunctionCount);
  size_t Row = IndexStart + Victim * IndexRowSize;
  uint64_t Length = readLe64(*Bytes, Row + 8);
  for (uint64_t Cut = 0; Cut < Length; Cut += 1 + Length / 16) {
    std::vector<uint8_t> Variant = *Bytes;
    writeLe64(Variant, Row + 8, Cut);
    std::string Path =
        writeVariant(Variant, "diffcut_" + std::to_string(Cut));
    ArchiveReader Buffered, Mapped;
    ASSERT_TRUE(openOn(Buffered, Path, ReadPath::Buffered));
    ASSERT_TRUE(openOn(Mapped, Path, ReadPath::Mmap));
    TwppFunctionTable TableA, TableB;
    bool OkA = Buffered.extractFunction(static_cast<FunctionId>(Victim),
                                        TableA);
    bool OkB = Mapped.extractFunction(static_cast<FunctionId>(Victim),
                                      TableB);
    EXPECT_EQ(OkA, OkB) << "cut " << Cut << " of " << Length;
    if (OkA && OkB) {
      EXPECT_EQ(TableA, TableB);
    } else {
      EXPECT_EQ(Buffered.lastError().CheckId, Mapped.lastError().CheckId);
      EXPECT_EQ(Buffered.lastError().Message, Mapped.lastError().Message);
    }
  }
}

TEST_P(ArchiveCorruption, MissingFileFailsOpen) {
  ArchiveReader Reader;
  EXPECT_FALSE(openOn(Reader, ::testing::TempDir() + "/does_not_exist.twpp",
                     GetParam()));
}

} // namespace
