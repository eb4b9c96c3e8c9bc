//===- tests/CliArchiveTest.cpp - The twpp CLI on crafted archives --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The archive decoder checks that a trace's timestamp sets sum to its
// length, not that they tile 1..Length. An archive whose sets overlap
// passes extraction; the commands that derive a block sequence from it
// must then fail with a message naming the function (exit 1), never with
// a signal or with wrong output.
//
// `twpp races` gives no verdict on a thread-aware archive that breaks
// the invariants its engine assumes: it names the failed check, exit 2.
// An HBEG section whose runs do not tile the edge list, and a version-2
// archive, are named by verify and races at the section's or the
// version field's byte.
// An archive that cannot be read at all is named the same way by races,
// memstat and verify, on stderr and in the --format=json diagnostics.
//
// The report verbs print archive paths whole: a path of any length comes
// back intact in the text report and in a --format=json document that
// tools/check_report.py accepts.
//
//===----------------------------------------------------------------------===//

#include "HbegFixtures.h"

#include "support/FileIO.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"
#include "wpp/Twpp.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

using namespace twpp;

namespace {

/// The trace 1 2 1 3 x3 with block 3 given block 2's timestamps {2,6,10}:
/// the counts still sum to 12, but 2, 6 and 10 are claimed twice and 4, 8
/// and 12 by no block. Each test writes its own file: ctest runs them at
/// once.
std::string writeOverlappingArchive(const std::string &Name) {
  std::vector<BlockId> Sequence;
  for (int I = 0; I < 3; ++I)
    Sequence.insert(Sequence.end(), {1, 2, 1, 3});
  TwppTrace Trace = twppFromBlockSequence(Sequence);
  Trace.Blocks[2].second = Trace.Blocks[1].second;

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

  std::string Path = ::testing::TempDir() + "/" + Name + ".twpp";
  EXPECT_TRUE(writeArchiveFile(Path, Wpp));
  return Path;
}

struct CommandRun {
  int Status = -1; ///< Raw wait status.
  std::string Output;
};

/// Runs the shell \p Command, capturing its stdout and stderr.
CommandRun runCommand(const std::string &Command) {
  CommandRun Result;
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe)
    return Result;
  char Buffer[4096];
  size_t Got;
  while ((Got = fread(Buffer, 1, sizeof(Buffer), Pipe)) > 0)
    Result.Output.append(Buffer, Got);
  Result.Status = pclose(Pipe);
  return Result;
}

/// Runs `twpp <Args>` with stderr folded into the captured output.
CommandRun runTwpp(const std::string &Args) {
  return runCommand(std::string(TWPP_BINARY) + " " + Args);
}

/// The racy contended test profile as a thread-aware archive, written
/// under a directory path longer than 1,100 bytes.
std::string writeRacyArchiveUnderLongPath(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "/" + Name;
  while (Dir.size() < 1100)
    Dir += "/" + std::string(200, 'd');
  std::filesystem::create_directories(Dir);
  ConcurrentProfile Racy;
  for (const ConcurrentProfile &P : testConcurrentProfiles())
    if (P.Kind == ConcurrentProfile::Shape::Contended && P.InjectRaces)
      Racy = P;
  EXPECT_TRUE(Racy.InjectRaces);
  std::string Path = Dir + "/racy.twpp";
  EXPECT_TRUE(writeConcurrentArchiveFile(
      Path, compactConcurrentWpp(generateConcurrentTrace(Racy))));
  return Path;
}

/// The parallel racy test profile with thread 1's first write set
/// decoded from {-9, -3}: runs that do not ascend. The decoder takes
/// them; the race engine's run cursors do not, and its verdict on this
/// archive would lose a racy address.
std::string writeDescendingWritesArchive(const std::string &Name) {
  ConcurrentProfile Racy;
  for (const ConcurrentProfile &P : testConcurrentProfiles())
    if (P.Kind == ConcurrentProfile::Shape::ParallelIndependent &&
        P.InjectRaces)
      Racy = P;
  EXPECT_TRUE(Racy.InjectRaces);
  ConcurrentWpp Wpp = compactConcurrentWpp(generateConcurrentTrace(Racy));
  EXPECT_TRUE(TimestampSet::decodeSigned(
      std::vector<int64_t>{-9, -3}, Wpp.Conc.Accesses[1].Accesses[0].Writes));
  std::string Path = ::testing::TempDir() + "/" + Name + ".twpp";
  EXPECT_TRUE(writeConcurrentArchiveFile(Path, Wpp));
  return Path;
}

TEST(CliMalformedConcurrency, RacesNamesTheCheckAndGivesNoVerdict) {
  std::string Path = writeDescendingWritesArchive("twpp_descending_races");
  CommandRun Text = runTwpp("races " + Path);
  ASSERT_TRUE(WIFEXITED(Text.Status)) << Text.Output;
  EXPECT_EQ(WEXITSTATUS(Text.Status), 2) << Text.Output;
  EXPECT_NE(Text.Output.find("[twpp-thread-access-bounds]"),
            std::string::npos)
      << Text.Output;
  EXPECT_EQ(Text.Output.find("RACY"), std::string::npos) << Text.Output;
  EXPECT_EQ(Text.Output.find("race-free"), std::string::npos) << Text.Output;

  std::string Report = ::testing::TempDir() + "/twpp_descending_races.json";
  // The diagnostics also go to stderr; only stdout is the document.
  CommandRun Json = runCommand("{ " + std::string(TWPP_BINARY) +
                               " races --format=json " + Path +
                               " 2>/dev/null; } > '" + Report + "'");
  ASSERT_TRUE(WIFEXITED(Json.Status)) << Json.Output;
  EXPECT_EQ(WEXITSTATUS(Json.Status), 2) << Json.Output;
  CommandRun Check = runCommand(std::string("python3 ") + TWPP_CHECK_REPORT +
                                " '" + Report + "' --verb races --exit 2");
  EXPECT_EQ(Check.Status, 0) << Check.Output;
  std::stringstream Doc;
  Doc << std::ifstream(Report).rdbuf();
  EXPECT_NE(Doc.str().find("\"check\": \"twpp-thread-access-bounds\""),
            std::string::npos)
      << Doc.str();
  EXPECT_EQ(Doc.str().find("\"verdict\""), std::string::npos) << Doc.str();
  std::remove(Path.c_str());
  std::remove(Report.c_str());
}

TEST(CliMalformedHbeg, VerifyAndRacesNameTheSectionAtItsOffset) {
  // Two runs that both claim edge 2.
  uint64_t At = 0;
  std::vector<uint8_t> Bytes = fixtures::withHbegPayload(
      fixtures::contendedArchiveBytes(),
      fixtures::hbegPayload(
          {{0, 0, 1, 4, 5, 2, 2, 1, 1}, {0, 2, 1, 4, 5, 2, 1, 1, 1}}),
      At);
  std::string Path = ::testing::TempDir() + "/twpp_overlapping_hbeg.twpp";
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  CommandRun Verify = runTwpp("verify " + Path);
  ASSERT_TRUE(WIFEXITED(Verify.Status)) << Verify.Output;
  EXPECT_EQ(WEXITSTATUS(Verify.Status), 1) << Verify.Output;
  EXPECT_NE(Verify.Output.find("error: [twpp-archive-section] HBEG section: "
                               "HBEG section does not decode (byte " +
                               std::to_string(At) + ")"),
            std::string::npos)
      << Verify.Output;
  CommandRun Races = runTwpp("races " + Path);
  ASSERT_TRUE(WIFEXITED(Races.Status)) << Races.Output;
  EXPECT_EQ(WEXITSTATUS(Races.Status), 2) << Races.Output;
  EXPECT_NE(Races.Output.find("[twpp-archive-section] HBEG section does not "
                              "decode"),
            std::string::npos)
      << Races.Output;

  Bytes = fixtures::contendedArchiveBytes();
  Bytes[4] = 2; // the version field
  ASSERT_TRUE(writeFileBytes(Path, Bytes).ok());
  for (const std::string Verb : {"verify", "races"}) {
    CommandRun Run = runTwpp(Verb + " " + Path);
    ASSERT_TRUE(WIFEXITED(Run.Status)) << Run.Output;
    EXPECT_EQ(WEXITSTATUS(Run.Status), Verb == "verify" ? 1 : 2) << Run.Output;
    EXPECT_NE(Run.Output.find("[twpp-archive-header] "),
              std::string::npos)
        << Run.Output;
    EXPECT_NE(Run.Output.find("unsupported archive version 2"),
              std::string::npos)
        << Run.Output;
  }
  std::remove(Path.c_str());
}

TEST(CliUnreadableArchive, ReportVerbsNameTheReadFailure) {
  std::string Missing = ::testing::TempDir() + "/twpp_missing.twppa";
  std::remove(Missing.c_str());
  std::string Report = ::testing::TempDir() + "/twpp_missing_report.json";
  for (const std::string Verb : {"races", "memstat", "verify"}) {
    CommandRun Text = runTwpp(Verb + " " + Missing);
    ASSERT_TRUE(WIFEXITED(Text.Status)) << Text.Output;
    EXPECT_EQ(WEXITSTATUS(Text.Status), 2) << Text.Output;
    EXPECT_NE(Text.Output.find("twpp " + Verb + ": " + Missing +
                               ": [twpp-archive-header] "),
              std::string::npos)
        << Text.Output;

    CommandRun Json = runCommand("{ " + std::string(TWPP_BINARY) + " " +
                                 Verb + " --format=json " + Missing +
                                 " 2>/dev/null; } > '" + Report + "'");
    ASSERT_TRUE(WIFEXITED(Json.Status)) << Json.Output;
    EXPECT_EQ(WEXITSTATUS(Json.Status), 2) << Json.Output;
    CommandRun Check =
        runCommand(std::string("python3 ") + TWPP_CHECK_REPORT + " '" +
                   Report + "' --verb " + Verb + " --exit 2");
    EXPECT_EQ(Check.Status, 0) << Check.Output;
    std::stringstream Doc;
    Doc << std::ifstream(Report).rdbuf();
    EXPECT_NE(Doc.str().find("\"check\": \"twpp-archive-header\""),
              std::string::npos)
        << Verb << ": " << Doc.str();
    EXPECT_NE(Doc.str().find("open-failed"), std::string::npos)
        << Verb << ": " << Doc.str();
  }
  std::remove(Report.c_str());
}

TEST(CliOverlappingSets, VerifyNamesTheOverlap) {
  std::string Path = writeOverlappingArchive("twpp_overlap_verify");
  for (const char *Checks : {"*", "twpp-dataflow-*"}) {
    CommandRun R =
        runTwpp("verify --checks='" + std::string(Checks) + "' " + Path);
    ASSERT_TRUE(WIFEXITED(R.Status)) << R.Output;
    EXPECT_EQ(WEXITSTATUS(R.Status), 1) << R.Output;
    EXPECT_NE(R.Output.find("[twpp-dataflow-annotation-partition]"),
              std::string::npos)
        << R.Output;
  }
  CommandRun All = runTwpp("verify " + Path);
  EXPECT_NE(All.Output.find("[twpp-archive-trace-partition]"),
            std::string::npos)
      << All.Output;
  std::remove(Path.c_str());
}

TEST(CliOverlappingSets, QueryAndReconstructNameTheFunction) {
  std::string Path = writeOverlappingArchive("twpp_overlap_query");
  std::string Out = ::testing::TempDir() + "/twpp_overlap_query.owpp";
  for (const std::string &Args :
       {"query " + Path + " 0", "reconstruct " + Path + " " + Out}) {
    CommandRun R = runTwpp(Args);
    ASSERT_TRUE(WIFEXITED(R.Status)) << Args << "\n" << R.Output;
    EXPECT_EQ(WEXITSTATUS(R.Status), 1) << Args << "\n" << R.Output;
    EXPECT_NE(R.Output.find("function 0"), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("do not tile"), std::string::npos) << R.Output;
  }
  std::remove(Path.c_str());
  std::remove(Out.c_str());
}

TEST(CliOverlappingSets, DotTracePrintsOneMessage) {
  std::string Path = writeOverlappingArchive("twpp_overlap_dot_trace");
  CommandRun R = runTwpp("dot-trace " + Path + " 0 0");
  ASSERT_TRUE(WIFEXITED(R.Status)) << R.Output;
  EXPECT_EQ(WEXITSTATUS(R.Status), 1) << R.Output;
  ASSERT_FALSE(R.Output.empty());
  EXPECT_EQ(R.Output.find('\n'), R.Output.size() - 1) << R.Output;
  EXPECT_NE(R.Output.find("do not tile"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(CliLongPath, RacesJsonReportValidates) {
  std::string Path = writeRacyArchiveUnderLongPath("twpp_long_races");
  std::string Report = ::testing::TempDir() + "/twpp_long_races.json";
  CommandRun R =
      runTwpp("races --format=json '" + Path + "' > '" + Report + "'");
  ASSERT_TRUE(WIFEXITED(R.Status)) << R.Output;
  ASSERT_EQ(WEXITSTATUS(R.Status), 1) << R.Output;
  CommandRun Check = runCommand(std::string("python3 ") + TWPP_CHECK_REPORT +
                                " '" + Report + "' --verb races --exit 1");
  EXPECT_EQ(Check.Status, 0) << Check.Output;
  std::stringstream Json;
  Json << std::ifstream(Report).rdbuf();
  EXPECT_NE(Json.str().find("\"verdict\": \"racy\""), std::string::npos)
      << Json.str();
  EXPECT_NE(Json.str().find(Path), std::string::npos);
  std::filesystem::remove_all(::testing::TempDir() + "/twpp_long_races");
  std::remove(Report.c_str());
}

TEST(CliLongPath, MemstatPrintsTheWholePath) {
  std::string Path = writeRacyArchiveUnderLongPath("twpp_long_memstat");
  CommandRun R = runTwpp("memstat '" + Path + "'");
  ASSERT_TRUE(WIFEXITED(R.Status)) << R.Output;
  EXPECT_EQ(WEXITSTATUS(R.Status), 0) << R.Output;
  EXPECT_EQ(R.Output.rfind(Path + "\n", 0), 0u) << R.Output;
  std::filesystem::remove_all(::testing::TempDir() + "/twpp_long_memstat");
}

} // namespace
