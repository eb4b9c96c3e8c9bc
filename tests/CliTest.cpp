//===- tests/CliTest.cpp - The shared flag-table parser -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/CliCommon.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

struct Options {
  std::string Out;
  std::string Format = "text";
  std::vector<std::string> Metrics;
  uint64_t Budget = 0;
  size_t Top = 10;
  double Pct = 5;
  bool Resume = false;

  cli::FlagTable table() {
    return {cli::stringFlag("out", "FILE", "report file", Out),
            cli::choiceFlag("format", "report", Format, {"text", "json"}),
            cli::listFlag("metric", "NAME", "enforce NAME", Metrics),
            cli::unsignedFlag("memory-budget", "BYTES", "budget", Budget),
            cli::unsignedFlag("top", "N", "rows", Top, 1, 100),
            cli::decimalFlag("threshold-pct", "P", "percent", Pct),
            cli::switchFlag("resume", "resume", Resume)};
  }
};

bool parse(Options &O, std::vector<std::string> Args,
           std::vector<std::string> *Positionals = nullptr,
           std::string *Error = nullptr) {
  cli::FlagTable Table = O.table();
  std::vector<std::string> Words;
  std::string Message;
  bool Ok = cli::parseArgs(Args, {&Table}, Words, &Message);
  if (Positionals)
    *Positionals = Words;
  if (Error)
    *Error = Message;
  return Ok;
}

} // namespace

TEST(CliNumbers, UnsignedIsPlainBoundedDecimal) {
  uint64_t V = 7;
  EXPECT_TRUE(cli::parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(cli::parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"", "18446744073709551616", "-1", "+1", "12x",
                          " 1", "1 ", "0x10", "1.0"})
    EXPECT_FALSE(cli::parseUnsigned(Bad, V)) << Bad;
  unsigned Bounded = 0;
  EXPECT_TRUE(cli::parseUnsigned("1024", Bounded, 0, 1024));
  EXPECT_FALSE(cli::parseUnsigned("1025", Bounded, 0, 1024));
  uint32_t Narrow = 0;
  EXPECT_TRUE(cli::parseUnsigned("4294967295", Narrow));
  EXPECT_FALSE(cli::parseUnsigned("4294967296", Narrow));
  EXPECT_FALSE(cli::parseUnsigned("0", Narrow, 1));
}

TEST(CliNumbers, SignedAndDecimal) {
  int64_t S = 0;
  EXPECT_TRUE(cli::parseSigned("-3", S));
  EXPECT_EQ(S, -3);
  EXPECT_TRUE(cli::parseSigned("-9223372036854775808", S));
  EXPECT_EQ(S, INT64_MIN);
  EXPECT_TRUE(cli::parseSigned("9223372036854775807", S));
  EXPECT_EQ(S, INT64_MAX);
  for (const char *Bad : {"", "-", "9223372036854775808", "abc", "3x", "+3"})
    EXPECT_FALSE(cli::parseSigned(Bad, S)) << Bad;

  double D = 0;
  EXPECT_TRUE(cli::parseDecimal("2.5", D));
  EXPECT_DOUBLE_EQ(D, 2.5);
  EXPECT_TRUE(cli::parseDecimal("0", D));
  EXPECT_DOUBLE_EQ(D, 0);
  for (const char *Bad : {"", ".", "-5", "+5", "abc", "1e3", "1.2.3", "5%"})
    EXPECT_FALSE(cli::parseDecimal(Bad, D)) << Bad;
}

TEST(CliParse, BothFormsAndPositionalsInAnyOrder) {
  Options O;
  std::vector<std::string> Words;
  ASSERT_TRUE(parse(O,
                    {"--out=a.json", "x.twpp", "--memory-budget", "4096",
                     "-3", "--metric", "m1", "--metric=m2", "--resume",
                     "--format", "json", "--threshold-pct=0.5"},
                    &Words));
  EXPECT_EQ(O.Out, "a.json");
  EXPECT_EQ(O.Budget, 4096u);
  EXPECT_EQ(O.Metrics, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_TRUE(O.Resume);
  EXPECT_EQ(O.Format, "json");
  EXPECT_DOUBLE_EQ(O.Pct, 0.5);
  EXPECT_EQ(Words, (std::vector<std::string>{"x.twpp", "-3"}));
}

TEST(CliParse, EveryMisuseIsNamed) {
  struct Case {
    std::vector<std::string> Args;
    const char *Error;
  };
  for (const Case &C : std::vector<Case>{
           {{"--bogus"}, "unknown flag --bogus"},
           {{"--out"}, "--out needs a value"},
           {{"--out", "--resume"}, "--out needs a value"},
           {{"--resume=yes"}, "--resume takes no value"},
           {{"--memory-budget", "12x"}, "--memory-budget: malformed value '12x'"},
           {{"--top=0"}, "--top: malformed value '0'"},
           {{"--top=101"}, "--top: malformed value '101'"},
           {{"--threshold-pct", "-5"}, "--threshold-pct: malformed value '-5'"},
           {{"--format=xml"}, "--format: malformed value 'xml'"}}) {
    Options O;
    std::string Error;
    EXPECT_FALSE(parse(O, C.Args, nullptr, &Error)) << C.Error;
    EXPECT_EQ(Error, C.Error);
  }
}

TEST(CliParse, WithoutAnErrorSlotOnlySortsWords) {
  Options O;
  cli::FlagTable Table = O.table();
  std::vector<std::string> Words;
  EXPECT_TRUE(cli::parseArgs({"--unknown", "--out", "f", "verb", "--top=x"},
                             {&Table}, Words, nullptr));
  EXPECT_EQ(Words, std::vector<std::string>{"verb"});
  EXPECT_TRUE(O.Out.empty()) << "a structural walk stores nothing";
}

TEST(CliParse, HelpListsEveryFlagOfTheTable) {
  Options O;
  cli::FlagTable Table = O.table();
  std::string Help = cli::renderFlags(Table);
  for (const cli::Flag &F : Table)
    EXPECT_NE(Help.find("--" + F.Name), std::string::npos) << F.Name;
  EXPECT_NE(Help.find("--format=text|json"), std::string::npos);
  EXPECT_NE(Help.find("--resume "), std::string::npos);
}
