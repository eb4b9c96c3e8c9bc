//===- tests/ArchiveTest.cpp - compacted TWPP archive format ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// The reader tests are parameterized over the read path so every
// behaviour is pinned on both the zero-copy (mmap) path and the buffered
// fallback, and the round-trip sweeps decode through BOTH paths and
// assert the results are structurally identical.
//
//===----------------------------------------------------------------------===//

#include "wpp/Archive.h"

#include "ReadPaths.h"
#include "TestTraces.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace twpp;
using fixtures::openOn;
using fixtures::ReadPath;

namespace {

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + "/" + Name;
}

/// Per-read-path file name: ctest runs both instances of a mode test at
/// once, and one must not remove the file the other is reading.
std::string tempPath(const char *Name, ReadPath Mode) {
  return ::testing::TempDir() + "/" + fixtures::readPathName(Mode) + "_" +
         Name;
}

TEST(FunctionTableCodecTest, RoundTrip) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  for (const TwppFunctionTable &Table : Compacted.Functions) {
    TwppFunctionTable Back;
    ASSERT_TRUE(decodeTwppFunctionTable(encodeTwppFunctionTable(Table),
                                        Back));
    EXPECT_EQ(Back, Table);
  }
}

TEST(FunctionTableCodecTest, RejectsTruncated) {
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  std::vector<uint8_t> Bytes =
      encodeTwppFunctionTable(Compacted.Functions[1]);
  Bytes.resize(Bytes.size() - 2);
  TwppFunctionTable Back;
  EXPECT_FALSE(decodeTwppFunctionTable(Bytes, Back));
}

/// Every reader test below runs once per read path.
class ArchiveModeTest : public ::testing::TestWithParam<ReadPath> {};

INSTANTIATE_TEST_SUITE_P(IoModes, ArchiveModeTest,
                         ::testing::Values(ReadPath::Buffered, ReadPath::Mmap),
                         [](const ::testing::TestParamInfo<ReadPath> &Info) {
                           return fixtures::readPathName(Info.param);
                         });

TEST_P(ArchiveModeTest, WriteOpenReadAll) {
  std::string Path = tempPath("twpp_archive_test.twpp", GetParam());
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  // On this platform a healthy file must actually be mapped (no silent
  // fallback), and the forced fallback must actually read.
  EXPECT_EQ(Reader.mapped(), GetParam() == ReadPath::Mmap);
  EXPECT_EQ(Reader.functionCount(), 2u);
  EXPECT_EQ(Reader.callCount(0), 1u);
  EXPECT_EQ(Reader.callCount(1), 5u);

  TwppWpp Back;
  ASSERT_TRUE(Reader.readAll(Back));
  EXPECT_EQ(Back, Compacted);
  EXPECT_EQ(reconstructRawTrace(Back), Trace);
  std::remove(Path.c_str());
}

TEST_P(ArchiveModeTest, OutOfRangeFunctionIdsAreRejected) {
  std::string Path = tempPath("twpp_archive_bounds.twpp", GetParam());
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  ASSERT_EQ(Reader.functionCount(), 2u);
  // callCount() used to index the table without a bounds check; an
  // unknown id must report zero calls, not undefined behaviour.
  EXPECT_EQ(Reader.callCount(2), 0u);
  EXPECT_EQ(Reader.callCount(1u << 20), 0u);
  TwppFunctionTable Table;
  EXPECT_FALSE(Reader.extractFunction(2, Table));
  FunctionPathTraces Traces;
  EXPECT_FALSE(Reader.extractFunctionPathTraces(1u << 20, Traces));
  std::remove(Path.c_str());
}

TEST_P(ArchiveModeTest, ExtractSingleFunction) {
  std::string Path = tempPath("twpp_archive_extract.twpp", GetParam());
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  FunctionPathTraces F;
  ASSERT_TRUE(Reader.extractFunctionPathTraces(1, F));
  ASSERT_EQ(F.Traces.size(), 2u);
  EXPECT_EQ(F.Traces[0],
            (PathTrace{1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10}));
  EXPECT_EQ(F.Traces[1],
            (PathTrace{1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10}));
  EXPECT_EQ(F.CallCount, 5u);

  // Out-of-range function id fails cleanly.
  TwppFunctionTable Table;
  EXPECT_FALSE(Reader.extractFunction(7, Table));
  std::remove(Path.c_str());
}

TEST_P(ArchiveModeTest, DcgRoundTripsThroughLzw) {
  std::string Path = tempPath("twpp_archive_dcg.twpp", GetParam());
  RawTrace Trace = fixtures::randomTrace(99);
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  ArchiveReader Reader;
  ASSERT_TRUE(openOn(Reader, Path, GetParam()));
  DynamicCallGraph Dcg;
  ASSERT_TRUE(Reader.readDcg(Dcg));
  EXPECT_EQ(Dcg, Compacted.Dcg);
  std::remove(Path.c_str());
}

TEST_P(ArchiveModeTest, OpenRejectsGarbage) {
  std::string Path = tempPath("twpp_archive_garbage.twpp", GetParam());
  ASSERT_TRUE(writeFileBytes(Path, {1, 2, 3, 4, 5, 6, 7, 8}));
  ArchiveReader Reader;
  EXPECT_FALSE(openOn(Reader, Path, GetParam()));
  std::remove(Path.c_str());

  ArchiveReader Missing;
  EXPECT_FALSE(openOn(Missing, tempPath("no_such_file.twpp"), GetParam()));
}

TEST_P(ArchiveModeTest, OpenRejectsEmptyFile) {
  // Zero bytes maps to a valid null span (mmap(2) can't express it, the
  // wrapper special-cases it); the header check must still reject it the
  // same way in both modes.
  std::string Path = tempPath("twpp_archive_empty.twpp", GetParam());
  ASSERT_TRUE(writeFileBytes(Path, {}));
  ArchiveReader Reader;
  EXPECT_FALSE(openOn(Reader, Path, GetParam()));
  EXPECT_EQ(Reader.lastError().CheckId, "twpp-archive-header");
  std::remove(Path.c_str());
}

TEST(ArchiveMmapFallback, InjectedMmapFaultFallsBackToBuffered) {
  std::string Path = tempPath("twpp_archive_fallback.twpp");
  RawTrace Trace = fixtures::figure1Trace();
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));

  TwppWpp Back;
  {
    fault::ScopedFaultSpec Spec("io:mmap:n=1");
    ArchiveReader Reader;
    ASSERT_TRUE(Reader.open(Path));
    // The mapping failed (injected); the reader degrades, not errors.
    EXPECT_FALSE(Reader.mapped());
    ASSERT_TRUE(Reader.readAll(Back));
  }
  EXPECT_EQ(Back, Compacted);
  std::remove(Path.c_str());
}

/// Decodes \p Path through both read paths and asserts the results are
/// structurally identical, returning the (shared) decoded form.
TwppWpp decodeBothModes(const std::string &Path) {
  TwppWpp Buffered, Mapped;
  ArchiveReader BufferedReader, MappedReader;
  EXPECT_TRUE(openOn(BufferedReader, Path, ReadPath::Buffered));
  EXPECT_FALSE(BufferedReader.mapped());
  EXPECT_TRUE(BufferedReader.readAll(Buffered));
  EXPECT_TRUE(openOn(MappedReader, Path, ReadPath::Mmap));
  EXPECT_TRUE(MappedReader.mapped());
  EXPECT_TRUE(MappedReader.readAll(Mapped));
  EXPECT_EQ(Buffered, Mapped);
  EXPECT_EQ(BufferedReader.functionCount(), MappedReader.functionCount());
  for (FunctionId F = 0; F != BufferedReader.functionCount(); ++F) {
    EXPECT_EQ(BufferedReader.callCount(F), MappedReader.callCount(F));
    EXPECT_EQ(BufferedReader.blockLength(F), MappedReader.blockLength(F));
  }
  return Buffered;
}

/// Property sweep: archive round trip on random traces, decoded through
/// both read paths.
class ArchiveRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArchiveRoundTrip, RandomTraces) {
  std::string Path = tempPath(
      ("twpp_archive_rt_" + std::to_string(GetParam()) + ".twpp").c_str());
  RawTrace Trace = fixtures::randomTrace(GetParam(), 8, 5000);
  TwppWpp Compacted = compactWpp(Trace);
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));
  TwppWpp Back = decodeBothModes(Path);
  EXPECT_EQ(Back, Compacted);
  EXPECT_EQ(reconstructRawTrace(Back), Trace);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArchiveRoundTrip,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

/// Differential A/B decode over the five paper workload archives
/// (Table 2/3 programs) — the committed fixtures the zero-copy
/// acceptance criterion names.
class PaperProfileDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(PaperProfileDifferential, BufferedAndMmapDecodeIdentically) {
  WorkloadProfile Profile = paperProfiles()[GetParam()];
  RawTrace Trace = generateWorkloadTrace(Profile);
  TwppWpp Compacted = compactWpp(Trace);
  std::string Path = tempPath(("twpp_diff_" + Profile.Name + ".twpp").c_str());
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));
  TwppWpp Back = decodeBothModes(Path);
  EXPECT_EQ(Back, Compacted);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(PaperProfiles, PaperProfileDifferential,
                         ::testing::Range(size_t(0), size_t(5)),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return paperProfiles()[Info.param].Name.substr(4);
                         });

} // namespace
