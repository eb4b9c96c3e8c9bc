//===- tests/ExtractOracleTest.cpp - One-pass extraction vs oracle ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// extractFunctionPathTraces decodes a function block into flat arrays
/// and expands each trace in one pass; expandPathTrace does the same over
/// a decoded table. Both must equal the per-element oracle
/// (ExpansionOracle.h) on seeded random tables (shared strings and
/// dictionaries, out-of-order blocks and chains, untiled sets) and on
/// every test-profile archive in both read paths. Crafted blocks pin the
/// diagnostic each failure gives: check id, message and byte offset.
///
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "verify/Checks.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"

#include "ExpansionOracle.h"
#include "ReadPaths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using fixtures::openOn;
using fixtures::ReadPath;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/extract_oracle_" + Name + ".twpp";
}

/// A random function table. Trace strings and dictionaries are shared
/// across traces; chain heads fall below, among and above the plain
/// blocks. Some tables hold a chain list or a block list out of order, or
/// a timestamp set shifted by one so that its string no longer tiles.
TwppFunctionTable randomTable(Rng &R) {
  TwppFunctionTable Table;
  size_t Strings = 1 + R.nextBelow(4);
  for (size_t S = 0; S != Strings; ++S) {
    std::vector<BlockId> Sequence(R.nextBelow(40));
    for (BlockId &Block : Sequence)
      Block = static_cast<BlockId>(4 + R.nextBelow(16));
    TwppTrace Trace = twppFromBlockSequence(Sequence);
    if (Trace.Blocks.size() > 1 && R.nextBool(0.15))
      std::swap(Trace.Blocks.front(), Trace.Blocks.back());
    if (!Trace.Blocks.empty() && R.nextBool(0.1)) {
      TimestampSet &Set = Trace.Blocks[R.nextBelow(Trace.Blocks.size())].second;
      Set = Set.shifted(1);
    }
    Table.TraceStrings.push_back(std::move(Trace));
  }
  size_t Dicts = 1 + R.nextBelow(3);
  for (size_t D = 0; D != Dicts; ++D) {
    DbbDictionary Dict;
    for (BlockId Head = 1; Head != 24; ++Head) {
      if (!R.nextBool(0.3))
        continue;
      std::vector<BlockId> Chain{Head};
      for (size_t K = 1 + R.nextBelow(4); K != 0; --K)
        Chain.push_back(static_cast<BlockId>(1 + R.nextBelow(40)));
      Dict.Chains.push_back(std::move(Chain));
    }
    if (Dict.Chains.size() > 1 && R.nextBool(0.15))
      std::swap(Dict.Chains.front(), Dict.Chains.back());
    Table.Dictionaries.push_back(std::move(Dict));
  }
  size_t Traces = 1 + R.nextBelow(6);
  for (size_t T = 0; T != Traces; ++T) {
    Table.Traces.emplace_back(static_cast<uint32_t>(R.nextBelow(Strings)),
                              static_cast<uint32_t>(R.nextBelow(Dicts)));
    Table.UseCounts.push_back(1 + R.nextBelow(5));
    Table.CallCount += Table.UseCounts.back();
  }
  return Table;
}

/// Extracts every function of \p Path on \p Mode and checks it against
/// the oracle over the decoded table. \returns the number of functions
/// whose traces did not tile.
size_t checkArchive(const std::string &Path, ReadPath Mode,
                    const std::string &What) {
  ArchiveReader Reader;
  EXPECT_TRUE(openOn(Reader, Path, Mode)) << What;
  size_t Untiled = 0;
  for (FunctionId F = 0; F != Reader.functionCount(); ++F) {
    SCOPED_TRACE(What + " / " + fixtures::readPathName(Mode) +
                 " / function " + std::to_string(F));
    TwppFunctionTable Table;
    EXPECT_TRUE(Reader.extractFunction(F, Table));
    FunctionPathTraces Want, Got, FromTable;
    bool Tiles = oracle::expandTable(Table, Want);
    Untiled += !Tiles;
    EXPECT_EQ(Reader.extractFunctionPathTraces(F, Got), Tiles);
    EXPECT_EQ(expandFunctionTraces(Table, FromTable), Tiles);
    if (!Tiles) {
      EXPECT_EQ(Reader.lastError().CheckId,
                verify::checks::ArchiveTracePartition);
      EXPECT_TRUE(Got.Traces.empty());
      EXPECT_TRUE(FromTable.Traces.empty());
    }
    for (const FunctionPathTraces *Side : {&Got, &FromTable}) {
      if (!Tiles)
        break;
      EXPECT_EQ(Side->Traces, Want.Traces);
      EXPECT_EQ(Side->UseCounts, Want.UseCounts);
      EXPECT_EQ(Side->CallCount, Want.CallCount);
    }
    for (auto [StringIdx, DictIdx] : Table.Traces) {
      const TwppTrace &String = Table.TraceStrings[StringIdx];
      PathTrace WantTrace, GotTrace;
      bool TraceTiles = oracle::expandTrace(
          String, Table.Dictionaries[DictIdx], WantTrace);
      EXPECT_EQ(expandPathTrace(String, Table.Dictionaries[DictIdx],
                                GotTrace),
                TraceTiles);
      std::vector<BlockId> WantSequence, GotSequence;
      EXPECT_EQ(oracle::blockSequence(String, WantSequence), TraceTiles);
      EXPECT_EQ(blockSequenceFromTwpp(String, GotSequence), TraceTiles);
      if (TraceTiles) {
        EXPECT_EQ(GotTrace, WantTrace);
        EXPECT_EQ(GotSequence, WantSequence);
      }
    }
  }
  return Untiled;
}

TEST(ExtractOracle, RandomTablesMatchTheOracle) {
  size_t Untiled = 0, Functions = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed * 7919);
    TwppWpp Wpp;
    Wpp.Functions.resize(1 + R.nextBelow(3));
    for (TwppFunctionTable &Table : Wpp.Functions)
      Table = randomTable(R);
    std::string Path = tempPath("random");
    ASSERT_TRUE(writeFileBytes(Path, encodeArchive(Wpp)));
    ReadPath Mode = Seed % 2 ? ReadPath::Mmap : ReadPath::Buffered;
    Untiled += checkArchive(Path, Mode, "seed " + std::to_string(Seed));
    Functions += Wpp.Functions.size();
    std::remove(Path.c_str());
  }
  // The generator reaches both outcomes.
  EXPECT_GT(Untiled, 0u);
  EXPECT_LT(Untiled, Functions);
}

TEST(ExtractOracle, TestProfilesMatchInBothReadPaths) {
  for (const WorkloadProfile &Profile : testProfiles()) {
    std::string Path = tempPath(Profile.Name);
    ASSERT_TRUE(
        writeArchiveFile(Path, compactWpp(generateWorkloadTrace(Profile))));
    for (ReadPath Mode : {ReadPath::Buffered, ReadPath::Mmap})
      EXPECT_EQ(checkArchive(Path, Mode, Profile.Name), 0u);
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Crafted blocks: the diagnostic of each failure
//===----------------------------------------------------------------------===//

/// One stored series: its values in encodeSigned's format.
void writeSeries(ByteWriter &W, const std::vector<int64_t> &Values) {
  W.writeVarUint(Values.size());
  for (int64_t Value : Values)
    W.writeVarInt(Value);
}

/// A function block of one trace, string 0 under an empty dictionary,
/// whose strings are \p Strings: per string its length and its blocks'
/// series (block ids 1, 2, ...).
std::vector<uint8_t>
craftBlock(const std::vector<std::pair<uint32_t,
                                       std::vector<std::vector<int64_t>>>>
               &Strings) {
  ByteWriter W;
  W.writeVarUint(1); // call count
  W.writeVarUint(Strings.size());
  for (const auto &[Length, Sets] : Strings) {
    W.writeVarUint(Length);
    W.writeVarUint(Sets.size());
    for (const std::vector<int64_t> &Set : Sets) {
      W.writeVarUint(1); // block id delta
      writeSeries(W, Set);
    }
  }
  W.writeVarUint(1); // one dictionary, no chains
  W.writeVarUint(0);
  W.writeVarUint(1); // one trace: string 0, dictionary 0, used once
  W.writeVarUint(0);
  W.writeVarUint(0);
  W.writeVarUint(1);
  return W.take();
}

/// A version-1 archive of one function whose block is \p Block; the block
/// starts right after the header and the index row.
constexpr uint64_t CraftedBlockAt = 12 + 16 + 24;
std::vector<uint8_t> craftArchive(const std::vector<uint8_t> &Block) {
  std::vector<uint8_t> Dcg = lzwCompress(encodeDcg(DynamicCallGraph()));
  ByteWriter W;
  W.writeFixed32(0x54575050); // "TWPP"
  W.writeFixed32(1);
  W.writeFixed32(1);
  W.writeFixed64(CraftedBlockAt + Block.size());
  W.writeFixed64(Dcg.size());
  W.writeFixed64(CraftedBlockAt);
  W.writeFixed64(Block.size());
  W.writeFixed64(1);
  W.writeBytes(Block.data(), Block.size());
  W.writeBytes(Dcg.data(), Dcg.size());
  return W.take();
}

struct Crafted {
  const char *Name;
  std::vector<uint8_t> Block;
  const char *CheckId;
  const char *Message;
};

std::vector<Crafted> craftedBlocks() {
  return {
      // Block 1 holds {1, 2} and block 2 {2, 3}: three timestamps of a
      // length-4 string, one of them twice.
      {"overlap", craftBlock({{4, {{1, -2}, {2, -3}}}}),
       verify::checks::ArchiveTracePartition,
       "timestamp sets do not tile 1..Length of a trace"},
      // A stored 0 is no timestamp: the series does not decode.
      {"zero", craftBlock({{2, {{-1}, {-0}}}}),
       verify::checks::ArchiveBlockDecode, "function block does not decode"},
      // {1, 2} and {4} in a length-3 string.
      {"past_length", craftBlock({{3, {{1, -2}, {-4}}}}),
       verify::checks::ArchiveTracePartition,
       "timestamp sets do not tile 1..Length of a trace"},
      // String 0 overlaps, and string 1's series holds a 0: the block
      // does not decode, though the first trace would fail to tile first.
      {"untiled_then_undecodable",
       craftBlock({{4, {{1, -2}, {2, -3}}}, {1, {{0}}}}),
       verify::checks::ArchiveBlockDecode, "function block does not decode"},
  };
}

TEST(ExtractOracle, CraftedBlocksKeepTheirDiagnostics) {
  for (const Crafted &C : craftedBlocks()) {
    std::string Path = tempPath(C.Name);
    ASSERT_TRUE(writeFileBytes(Path, craftArchive(C.Block)));
    for (ReadPath Mode : {ReadPath::Buffered, ReadPath::Mmap}) {
      SCOPED_TRACE(std::string(C.Name) + " / " +
                   fixtures::readPathName(Mode));
      ArchiveReader Reader;
      ASSERT_TRUE(openOn(Reader, Path, Mode));
      FunctionPathTraces Out;
      EXPECT_FALSE(Reader.extractFunctionPathTraces(0, Out));
      EXPECT_TRUE(Out.Traces.empty());
      const verify::Diagnostic &Error = Reader.lastError();
      EXPECT_EQ(Error.CheckId, C.CheckId);
      EXPECT_EQ(Error.Message, C.Message);
      EXPECT_EQ(Error.Location, "function 0 block");
      EXPECT_EQ(Error.ByteOffset, CraftedBlockAt);
    }
    std::remove(Path.c_str());
  }
}

} // namespace
