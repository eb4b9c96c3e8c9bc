//===- tests/SupportTest.cpp - support/ unit tests -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Mmap.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "workloads/Workload.h"
#include "wpp/Partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace twpp;

namespace {

TEST(ZigzagTest, RoundTripsRepresentativeValues) {
  for (int64_t Value :
       std::initializer_list<int64_t>{0, 1, -1, 2, -2, 1000000, -1000000,
                                      INT64_MAX, INT64_MIN})
    EXPECT_EQ(zigzagDecode(zigzagEncode(Value)), Value) << Value;
}

TEST(ZigzagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
}

TEST(ByteStreamTest, VarUintRoundTrip) {
  ByteWriter Writer;
  std::vector<uint64_t> Values = {0, 1, 127, 128, 16383, 16384,
                                  UINT32_MAX, UINT64_MAX};
  for (uint64_t Value : Values)
    Writer.writeVarUint(Value);
  ByteReader Reader(Writer.bytes());
  for (uint64_t Value : Values)
    EXPECT_EQ(Reader.readVarUint(), Value);
  EXPECT_TRUE(Reader.valid());
  EXPECT_TRUE(Reader.atEnd());
}

TEST(ByteStreamTest, VarIntRoundTrip) {
  ByteWriter Writer;
  std::vector<int64_t> Values = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t Value : Values)
    Writer.writeVarInt(Value);
  ByteReader Reader(Writer.bytes());
  for (int64_t Value : Values)
    EXPECT_EQ(Reader.readVarInt(), Value);
  EXPECT_TRUE(Reader.valid());
}

TEST(ByteStreamTest, StringsAndFixedWidth) {
  ByteWriter Writer;
  Writer.writeString("hello");
  Writer.writeFixed32(0xDEADBEEF);
  size_t PatchAt = Writer.size();
  Writer.writeFixed64(0);
  Writer.writeString("");
  Writer.patchFixed64(PatchAt, 0x0123456789ABCDEFULL);

  ByteReader Reader(Writer.bytes());
  EXPECT_EQ(Reader.readString(), "hello");
  EXPECT_EQ(Reader.readFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(Reader.readFixed64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(Reader.readString(), "");
  EXPECT_TRUE(Reader.valid());
}

TEST(ByteStreamTest, ReaderFlagsTruncation) {
  ByteWriter Writer;
  Writer.writeVarUint(UINT64_MAX);
  std::vector<uint8_t> Bytes = Writer.take();
  Bytes.pop_back();
  ByteReader Reader(Bytes);
  Reader.readVarUint();
  EXPECT_TRUE(Reader.hasError());
}

TEST(ByteStreamTest, ReaderFlagsOutOfRangeSeek) {
  std::vector<uint8_t> Bytes = {1, 2, 3};
  ByteReader Reader(Bytes);
  Reader.seek(3); // end is legal
  EXPECT_TRUE(Reader.valid());
  Reader.seek(4);
  EXPECT_TRUE(Reader.hasError());
}

TEST(LzwTest, EmptyInput) {
  std::vector<uint8_t> Out;
  EXPECT_TRUE(lzwDecompress(lzwCompress({}), Out));
  EXPECT_TRUE(Out.empty());
}

TEST(LzwTest, SingleByteAndKwKwK) {
  // "aaaa..." exercises the KwKwK corner case.
  std::vector<uint8_t> Input(100, 'a');
  std::vector<uint8_t> Out;
  ASSERT_TRUE(lzwDecompress(lzwCompress(Input), Out));
  EXPECT_EQ(Out, Input);
}

TEST(LzwTest, CompressesRepetitiveInput) {
  std::vector<uint8_t> Input;
  for (int I = 0; I < 2000; ++I)
    Input.push_back(static_cast<uint8_t>("abcabcab"[I % 8]));
  std::vector<uint8_t> Compressed = lzwCompress(Input);
  EXPECT_LT(Compressed.size(), Input.size() / 4);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(lzwDecompress(Compressed, Out));
  EXPECT_EQ(Out, Input);
}

TEST(LzwTest, RejectsMalformedStreams) {
  std::vector<uint8_t> Out;
  // First code must be a literal byte (< 256); 0x80 0x02 encodes 256.
  EXPECT_FALSE(lzwDecompress({0x80, 0x02}, Out));
}

/// Property sweep: random byte strings round trip.
class LzwRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzwRoundTrip, RandomBytes) {
  Rng R(GetParam());
  size_t Length = R.nextBelow(5000);
  // Small alphabets compress hard; large alphabets stress literals.
  uint64_t Alphabet = 1 + R.nextBelow(255);
  std::vector<uint8_t> Input;
  Input.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    Input.push_back(static_cast<uint8_t>(R.nextBelow(Alphabet)));
  std::vector<uint8_t> Out;
  ASSERT_TRUE(lzwDecompress(lzwCompress(Input), Out));
  EXPECT_EQ(Out, Input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzwRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

/// A reference LZW encoder over a hash-map dictionary, kept so
/// lzwCompress's flat table can be checked against it byte for byte.
std::vector<uint8_t> referenceLzwCompress(const std::vector<uint8_t> &Input) {
  ByteWriter Writer;
  if (Input.empty())
    return Writer.take();
  auto PackKey = [](uint32_t PrefixCode, uint8_t Byte) {
    return (static_cast<uint64_t>(PrefixCode) << 8) | Byte;
  };
  std::unordered_map<uint64_t, uint32_t> Dict;
  uint32_t NextCode = 256;
  uint32_t Current = Input[0];
  for (size_t I = 1, E = Input.size(); I != E; ++I) {
    uint8_t Byte = Input[I];
    auto It = Dict.find(PackKey(Current, Byte));
    if (It != Dict.end()) {
      Current = It->second;
      continue;
    }
    Writer.writeVarUint(Current);
    if (NextCode < LZWMaxDictSize)
      Dict.emplace(PackKey(Current, Byte), NextCode++);
    Current = Byte;
  }
  Writer.writeVarUint(Current);
  return Writer.take();
}

TEST_P(LzwRoundTrip, MatchesReferenceEncoder) {
  Rng R(GetParam() * 7919);
  size_t Length = R.nextBelow(200000);
  uint64_t Alphabet = 1 + R.nextBelow(256);
  std::vector<uint8_t> Input;
  Input.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    Input.push_back(static_cast<uint8_t>(R.nextBelow(Alphabet)));
  EXPECT_EQ(lzwCompress(Input), referenceLzwCompress(Input));
}

TEST(LzwTest, MatchesReferenceEncoderOnDcgs) {
  for (const WorkloadProfile &Profile : testProfiles()) {
    std::vector<uint8_t> Dcg =
        encodeDcg(partitionWpp(generateWorkloadTrace(Profile)).Dcg);
    EXPECT_EQ(lzwCompress(Dcg), referenceLzwCompress(Dcg)) << Profile.Name;
  }
}

TEST(LzwTest, MatchesReferenceEncoderPastDictionaryCap) {
  // Pseudo-random bytes rarely repeat a long string, so they add
  // dictionary entries fast: 3 MiB fills it, and the rest is coded with
  // it frozen.
  Rng R(2024);
  std::vector<uint8_t> Input(3u << 20);
  for (uint8_t &Byte : Input)
    Byte = static_cast<uint8_t>(R.next() >> 56);
  std::vector<uint8_t> Compressed = lzwCompress(Input);
  EXPECT_EQ(Compressed, referenceLzwCompress(Input));
  // Every code but the last defines one entry until the cap, so this
  // many codes means the cap was reached and many more were coded after.
  ByteReader Reader(Compressed);
  uint64_t Codes = 0;
  for (; !Reader.atEnd(); ++Codes)
    Reader.readVarUint();
  EXPECT_GT(Codes, uint64_t(LZWMaxDictSize - 256) + 100000);
  std::vector<uint8_t> Out;
  ASSERT_TRUE(lzwDecompress(Compressed, Out));
  EXPECT_EQ(Out, Input);
}

/// The bytewise CRC-32 the slicing-by-8 form must agree with.
uint32_t referenceCrc32(const uint8_t *Bytes, size_t Size) {
  uint32_t Crc = 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I) {
    Crc ^= Bytes[I];
    for (int K = 0; K < 8; ++K)
      Crc = (Crc & 1) ? 0xEDB88320u ^ (Crc >> 1) : (Crc >> 1);
  }
  return Crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const char *Check = "123456789";
  EXPECT_EQ(crc32(Check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(Check, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng R(99);
  std::vector<uint8_t> Buffer(64 + 8 + 8);
  for (uint8_t &Byte : Buffer)
    Byte = static_cast<uint8_t>(R.next());
  for (size_t Offset = 0; Offset < 8; ++Offset)
    for (size_t Length = 0; Length < 68; ++Length)
      EXPECT_EQ(crc32(Buffer.data() + Offset, Length),
                referenceCrc32(Buffer.data() + Offset, Length))
          << "offset=" << Offset << " length=" << Length;
}

TEST(Crc32Test, UpdateIsInvariantToSplitPoint) {
  Rng R(7);
  std::vector<uint8_t> Buffer(300);
  for (uint8_t &Byte : Buffer)
    Byte = static_cast<uint8_t>(R.next());
  uint32_t Whole = crc32(Buffer.data(), Buffer.size());
  EXPECT_EQ(Whole, referenceCrc32(Buffer.data(), Buffer.size()));
  for (size_t Split = 0; Split <= Buffer.size(); ++Split) {
    uint32_t Crc = crc32Update(crc32Init(), Buffer.data(), Split);
    Crc = crc32Update(Crc, Buffer.data() + Split, Buffer.size() - Split);
    EXPECT_EQ(crc32Final(Crc), Whole) << "split=" << Split;
  }
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, WeightedSamplingHitsAllBuckets) {
  Rng R(9);
  std::vector<double> Weights = {1.0, 2.0, 4.0};
  std::vector<int> Counts(3, 0);
  for (int I = 0; I < 3000; ++I)
    ++Counts[R.nextWeighted(Weights)];
  EXPECT_GT(Counts[0], 0);
  EXPECT_GT(Counts[2], Counts[0]); // heavier bucket sampled more
}

TEST(StatsTest, RunningStats) {
  RunningStats S;
  S.add(2.0);
  S.add(4.0);
  S.add(9.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(StatsTest, WelfordVarianceMatchesDirectComputation) {
  RunningStats S;
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  S.add(5.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0); // undefined below two samples
  std::vector<double> Samples = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats W;
  for (double X : Samples)
    W.add(X);
  // Population variance of the classic example set is exactly 4.
  EXPECT_NEAR(W.variance(), 4.0, 1e-12);
  EXPECT_NEAR(W.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(W.mean(), 5.0);
}

TEST(StatsTest, WelfordIsStableForLargeOffsets) {
  // Naive sum-of-squares cancels catastrophically here; Welford must not.
  RunningStats S;
  for (double X : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0})
    S.add(X);
  EXPECT_NEAR(S.variance(), 22.5, 1e-6);
}

TEST(StatsTest, QuantilesExactForSmallSamples) {
  RunningStats S;
  for (double X : {10.0, 20.0, 30.0, 40.0, 50.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.p50(), 30.0);
  EXPECT_DOUBLE_EQ(S.p95(), 50.0);
}

TEST(StatsTest, P2QuantileTracksUniformStream) {
  // Deterministic uniform-ish stream via a multiplicative generator.
  P2Quantile Median(0.5), Tail(0.95);
  uint64_t State = 1;
  const uint64_t Samples = 20000;
  for (uint64_t I = 0; I < Samples; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    double X = static_cast<double>(State >> 11) /
               static_cast<double>(1ull << 53); // [0, 1)
    Median.add(X * 1000.0);
    Tail.add(X * 1000.0);
  }
  EXPECT_EQ(Median.count(), Samples);
  // P-squared is approximate; a few percent of the range is plenty.
  EXPECT_NEAR(Median.estimate(), 500.0, 25.0);
  EXPECT_NEAR(Tail.estimate(), 950.0, 25.0);
}

TEST(StatsTest, P2QuantileHandlesMonotoneStream) {
  P2Quantile Q(0.5);
  for (int I = 1; I <= 1001; ++I)
    Q.add(static_cast<double>(I));
  EXPECT_NEAR(Q.estimate(), 501.0, 50.0);
}

TEST(StatsTest, Formatting) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(2048), "2.00 KB");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(formatFactor(6.3), "x6.30");
}

TEST(FileIoTest, WholeFileAndSliceRoundTrip) {
  std::string Path = ::testing::TempDir() + "/twpp_fileio_test.bin";
  std::vector<uint8_t> Data;
  for (int I = 0; I < 1000; ++I)
    Data.push_back(static_cast<uint8_t>(I * 7));
  ASSERT_TRUE(writeFileBytes(Path, Data));
  ASSERT_TRUE(fileSize(Path).has_value());
  EXPECT_EQ(*fileSize(Path), Data.size());
  EXPECT_FALSE(fileSize(Path + ".does-not-exist").has_value());

  std::vector<uint8_t> Back;
  ASSERT_TRUE(readFileBytes(Path, Back));
  EXPECT_EQ(Back, Data);
  std::remove(Path.c_str());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter Table("Demo");
  Table.addRow({"Program", "Size"});
  Table.addRow({"a", "100"});
  Table.addRow({"longer-name", "2"});
  std::string Text = Table.render();
  EXPECT_NE(Text.find("== Demo =="), std::string::npos);
  EXPECT_NE(Text.find("longer-name"), std::string::npos);
  EXPECT_NE(Text.find("---"), std::string::npos);
}


//===----------------------------------------------------------------------===//
// Arena — the decode scratch allocator of the zero-copy read path.
//===----------------------------------------------------------------------===//

TEST(ArenaTest, BumpsWithinOneBlock) {
  Arena A(1024);
  void *P1 = A.allocate(100);
  void *P2 = A.allocate(100);
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P2, nullptr);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(A.blockCount(), 1u);
  EXPECT_GE(A.bytesUsed(), 200u);
  EXPECT_EQ(A.bytesReserved(), 1024u);
}

TEST(ArenaTest, ResetReusesBlocksWithoutReacquiring) {
  Arena A(256);
  void *First = A.allocate(200);
  A.allocate(200); // forces a second block
  EXPECT_EQ(A.blockCount(), 2u);
  size_t Reserved = A.bytesReserved();
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
  // After reset, allocation restarts at the first pooled block.
  void *Again = A.allocate(200);
  EXPECT_EQ(Again, First);
  EXPECT_EQ(A.blockCount(), 2u);
  EXPECT_EQ(A.bytesReserved(), Reserved);
}

TEST(ArenaTest, AlignmentIsHonoured) {
  Arena A(1024);
  A.allocate(1); // misalign the cursor
  for (size_t Align : {size_t(2), size_t(4), size_t(8), size_t(16)}) {
    void *P = A.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
  int64_t *Typed = A.allocateArray<int64_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Typed) % alignof(int64_t), 0u);
  // Writes must land in distinct storage.
  for (int I = 0; I < 5; ++I)
    Typed[I] = I;
  EXPECT_EQ(Typed[4], 4);
}

TEST(ArenaTest, OversizedRequestSpills) {
  Arena A(128);
  void *Big = A.allocate(10000);
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(A.blockCount(), 1u);
  EXPECT_EQ(A.bytesReserved(), 10000u);
  // The spill block is pooled: a reset makes it reusable.
  A.reset();
  void *Again = A.allocate(9000);
  EXPECT_EQ(Again, Big);
  EXPECT_EQ(A.blockCount(), 1u);
}

TEST(ArenaTest, ReleaseReturnsEverything) {
  Arena A(256);
  A.allocate(1000);
  A.release();
  EXPECT_EQ(A.blockCount(), 0u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  EXPECT_EQ(A.bytesUsed(), 0u);
  // The arena is still usable after release().
  EXPECT_NE(A.allocate(64), nullptr);
  EXPECT_EQ(A.blockCount(), 1u);
}

TEST(ArenaTest, ZeroByteAllocationsAreValid) {
  Arena A(64);
  void *P = A.allocate(0);
  EXPECT_NE(P, nullptr);
}

//===----------------------------------------------------------------------===//
// MappedFile — the mmap(2) RAII wrapper behind ArchiveReader.
//===----------------------------------------------------------------------===//

TEST(MmapTest, MapsFileContents) {
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string Path = ::testing::TempDir() + "/mmap_contents.bin";
  std::vector<uint8_t> Payload = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(writeFileBytes(Path, Payload));
  MappedFile Map;
  ASSERT_TRUE(Map.map(Path));
  EXPECT_TRUE(Map.mapped());
  ASSERT_EQ(Map.size(), Payload.size());
  ByteSpan Span = Map.span();
  EXPECT_TRUE(std::equal(Span.begin(), Span.end(), Payload.begin()));
  Map.unmap();
  EXPECT_FALSE(Map.mapped());
  EXPECT_EQ(Map.size(), 0u);
  std::remove(Path.c_str());
}

TEST(MmapTest, EmptyFileMapsToNullSpan) {
  // mmap(2) rejects length zero; the wrapper must still report success
  // with an empty span so callers need no special case.
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string Path = ::testing::TempDir() + "/mmap_empty.bin";
  ASSERT_TRUE(writeFileBytes(Path, {}));
  MappedFile Map;
  ASSERT_TRUE(Map.map(Path));
  EXPECT_TRUE(Map.mapped());
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_TRUE(Map.span().empty());
  std::remove(Path.c_str());
}

TEST(MmapTest, MissingFileFailsCleanly) {
  MappedFile Map;
  IoError Error = Map.map(::testing::TempDir() + "/mmap_no_such_file.bin");
  EXPECT_FALSE(Error);
  EXPECT_FALSE(Map.mapped());
}

TEST(MmapTest, RemapReplacesPreviousMapping) {
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string PathA = ::testing::TempDir() + "/mmap_a.bin";
  std::string PathB = ::testing::TempDir() + "/mmap_b.bin";
  ASSERT_TRUE(writeFileBytes(PathA, {1, 1, 1}));
  ASSERT_TRUE(writeFileBytes(PathB, {2, 2}));
  MappedFile Map;
  ASSERT_TRUE(Map.map(PathA));
  ASSERT_TRUE(Map.map(PathB));
  ASSERT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.span().Data[0], 2);
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

TEST(MmapTest, MoveTransfersOwnership) {
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string Path = ::testing::TempDir() + "/mmap_move.bin";
  ASSERT_TRUE(writeFileBytes(Path, {9, 8, 7}));
  MappedFile A;
  ASSERT_TRUE(A.map(Path));
  MappedFile B = std::move(A);
  EXPECT_FALSE(A.mapped());
  ASSERT_TRUE(B.mapped());
  ASSERT_EQ(B.size(), 3u);
  EXPECT_EQ(B.span().Data[0], 9);
  std::remove(Path.c_str());
}

TEST(MmapTest, InjectedFaultFailsMap) {
  if (!MappedFile::available())
    GTEST_SKIP() << "mmap not available on this platform";
  std::string Path = ::testing::TempDir() + "/mmap_fault.bin";
  ASSERT_TRUE(writeFileBytes(Path, {1, 2, 3}));
  fault::ScopedFaultSpec Spec("io:mmap:n=1");
  MappedFile Map;
  EXPECT_FALSE(Map.map(Path));
  EXPECT_FALSE(Map.mapped());
  // The injected budget is spent; a second attempt succeeds.
  EXPECT_TRUE(Map.map(Path));
  std::remove(Path.c_str());
}

} // namespace
