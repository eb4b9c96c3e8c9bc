//===- tests/ObsTest.cpp - obs/ telemetry unit tests -----------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "obs/TelemetrySession.h"
#include "obs/Trace.h"

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/Query.h"
#include "sequitur/Sequitur.h"
#include "support/LZW.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <sstream>

using namespace twpp;

namespace {

/// Every test starts from a clean, enabled registry; collection is
/// restored to off so other binaries sharing the process stay unaffected.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::metrics().reset();
    obs::setMetricsEnabled(true);
  }
  void TearDown() override {
    obs::setMetricsEnabled(false);
    obs::metrics().reset();
  }
};

//===----------------------------------------------------------------------===//
// A minimal JSON syntax checker, enough to assert the exporters emit
// well-formed documents (objects, arrays, strings, numbers, literals).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : Text(Text) {}

  bool valid() {
    skipSpace();
    if (!value())
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipSpace();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (!string())
        return false;
      skipSpace();
      if (peek() != ':')
        return false;
      ++Pos;
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipSpace();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\')
        ++Pos;
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  const std::string &Text;
  size_t Pos = 0;
};

uint64_t counterValue(const char *Name) {
  return obs::metrics().counter(Name).value();
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, CounterAccumulates) {
  obs::Counter &C = obs::metrics().counter("test.counter");
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  EXPECT_EQ(counterValue("test.counter"), 42u);
}

TEST_F(ObsTest, CounterRegistrationIsStable) {
  obs::Counter &A = obs::metrics().counter("test.same");
  obs::Counter &B = obs::metrics().counter("test.same");
  EXPECT_EQ(&A, &B);
  A.add(7);
  EXPECT_EQ(B.value(), 7u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::Gauge &G = obs::metrics().gauge("test.gauge");
  G.set(100);
  G.add(-30);
  EXPECT_EQ(G.value(), 70);
}

TEST_F(ObsTest, ResetZeroesInPlace) {
  obs::Counter &C = obs::metrics().counter("test.reset");
  C.add(5);
  obs::metrics().reset();
  EXPECT_EQ(C.value(), 0u); // same object, zeroed
  C.add(2);
  EXPECT_EQ(counterValue("test.reset"), 2u);
}

//===----------------------------------------------------------------------===//
// Disabled path
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, DisabledTracingRecordsNoEvents) {
  // This binary never turns tracing on, so the flight recorder must have
  // created no rings at all: spans and pool tasks throughout these tests
  // pay only the relaxed-load check, allocating nothing.
  ASSERT_FALSE(obs::tracingEnabled());
  { obs::PhaseSpan Span("metrics_only_span"); }
  EXPECT_TRUE(obs::traceRecorder().snapshot().empty());
}

TEST_F(ObsTest, DisabledCollectionIsANoOp) {
  obs::setMetricsEnabled(false);
  obs::metrics().counter("test.off").add(9);
  obs::metrics().gauge("test.off_gauge").set(9);
  {
    obs::PhaseSpan Span("test_off_span");
    EXPECT_TRUE(Span.path().empty());
  }
  EXPECT_EQ(counterValue("test.off"), 0u);
  EXPECT_EQ(obs::metrics().gauge("test.off_gauge").value(), 0);
  EXPECT_TRUE(obs::metrics().spanSnapshot().empty());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpanNestingBuildsHierarchicalPaths) {
  {
    obs::PhaseSpan Outer("outer");
    EXPECT_EQ(Outer.path(), "outer");
    {
      obs::PhaseSpan Inner("inner");
      EXPECT_EQ(Inner.path(), "outer/inner");
    }
    obs::PhaseSpan Sibling("sibling");
    EXPECT_EQ(Sibling.path(), "outer/sibling");
  }
  auto Spans = obs::metrics().spanSnapshot();
  ASSERT_EQ(Spans.size(), 3u);
  // Snapshot is ordered by path.
  EXPECT_EQ(Spans[0].Path, "outer");
  EXPECT_EQ(Spans[1].Path, "outer/inner");
  EXPECT_EQ(Spans[2].Path, "outer/sibling");
  EXPECT_EQ(Spans[0].Stats.Count, 1u);
  // The parent's self time excludes both children.
  EXPECT_GE(Spans[0].Stats.TotalUs,
            Spans[1].Stats.TotalUs + Spans[2].Stats.TotalUs);
  EXPECT_LE(Spans[0].Stats.SelfUs, Spans[0].Stats.TotalUs);
}

TEST_F(ObsTest, SpanCountsRepeatedCalls) {
  for (int I = 0; I < 3; ++I)
    obs::PhaseSpan Span("repeat");
  auto Spans = obs::metrics().spanSnapshot();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Stats.Count, 3u);
  EXPECT_EQ(Spans[0].Stats.DurationsUs.count(), 3u);
}

//===----------------------------------------------------------------------===//
// JSON emission helpers (obs/Json.h) — both exporters lean on these, so
// a hole in the escaper desynchronizes every downstream parser at once.
//===----------------------------------------------------------------------===//

TEST(ObsJson, StringLiteralEscapesQuotesAndBackslashes) {
  EXPECT_EQ(obs::jsonStringLiteral("plain"), "\"plain\"");
  EXPECT_EQ(obs::jsonStringLiteral("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(obs::jsonStringLiteral("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::jsonStringLiteral(""), "\"\"");
}

TEST(ObsJson, StringLiteralEscapesEveryControlCharacter) {
  // All 32 control bytes become \u00xx — including the common ones, which
  // this escaper deliberately does not shorten to \n/\t.
  EXPECT_EQ(obs::jsonStringLiteral("a\nb"), "\"a\\u000ab\"");
  EXPECT_EQ(obs::jsonStringLiteral("\t"), "\"\\u0009\"");
  EXPECT_EQ(obs::jsonStringLiteral(std::string_view("\0", 1)),
            "\"\\u0000\"");
  for (int C = 0; C < 0x20; ++C) {
    char Raw = static_cast<char>(C);
    std::string Escaped = obs::jsonStringLiteral(std::string_view(&Raw, 1));
    char Expected[10];
    std::snprintf(Expected, sizeof(Expected), "\"\\u%04x\"", C);
    EXPECT_EQ(Escaped, Expected) << "control byte " << C;
  }
  // 0x7F (DEL) is not a JSON-mandated escape; it passes through.
  EXPECT_EQ(obs::jsonStringLiteral("\x7f"), "\"\x7f\"");
}

TEST(ObsJson, StringLiteralPassesMultiByteUtf8Through) {
  // High bytes must not be treated as negative chars and escaped: UTF-8
  // sequences (2-, 3- and 4-byte) pass through verbatim.
  EXPECT_EQ(obs::jsonStringLiteral("café"), "\"café\"");
  EXPECT_EQ(obs::jsonStringLiteral("λ→∞"), "\"λ→∞\"");
  EXPECT_EQ(obs::jsonStringLiteral("𝛑"), "\"𝛑\"");
  EXPECT_EQ(obs::jsonStringLiteral("mixed \"π\"\n"),
            "\"mixed \\\"π\\\"\\u000a\"");
}

TEST(ObsJson, NumberRejectsNonFiniteAndHugeValues) {
  // JSON has no NaN/Inf; the exporters emit a defensive zero rather than
  // corrupt the document. The cutoff is |x| > 1e300.
  EXPECT_EQ(obs::jsonNumber(std::nan("")), "0");
  EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::jsonNumber(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::jsonNumber(1e301), "0");
  EXPECT_EQ(obs::jsonNumber(-1e301), "0");
  EXPECT_EQ(obs::jsonNumber(1e300), "1e+300");
}

TEST(ObsJson, NumberFormatsFiniteValuesCompactly) {
  EXPECT_EQ(obs::jsonNumber(0), "0");
  EXPECT_EQ(obs::jsonNumber(-7), "-7");
  EXPECT_EQ(obs::jsonNumber(12345), "12345");
  EXPECT_EQ(obs::jsonNumber(0.5), "0.5");
  // %.6g: six significant digits.
  EXPECT_EQ(obs::jsonNumber(1234567), "1.23457e+06");
}

TEST(ObsJsonWriter, EscapesKeysAndStringValues) {
  obs::JsonWriter W;
  W.beginObject().field("say \"hi\"", "a\\b\n").field("tab\t", "");
  EXPECT_EQ(W.finish(),
            "{\"say \\\"hi\\\"\": \"a\\\\b\\u000a\", \"tab\\u0009\": \"\"}");
}

TEST(ObsJsonWriter, WritesEveryValueKind) {
  obs::JsonWriter W;
  W.beginArray()
      .value(uint64_t(18446744073709551615ull))
      .value(int64_t(-5))
      .value(uint32_t(7))
      .value(0.5)
      .value(true)
      .value(false)
      .value(std::string("s"))
      .end();
  EXPECT_EQ(W.finish(),
            "[18446744073709551615, -5, 7, 0.5, true, false, \"s\"]");
}

TEST(ObsJsonWriter, NestsObjectsAndArraysIncludingEmptyOnes) {
  obs::JsonWriter W;
  W.beginObject()
      .key("empty_object")
      .beginObject()
      .end()
      .key("empty_array")
      .beginArray()
      .end()
      .key("nested")
      .beginArray()
      .beginObject()
      .field("a", 1)
      .key("b")
      .beginArray()
      .value(2)
      .value(3)
      .end()
      .end()
      .beginArray()
      .end()
      .end()
      .end();
  EXPECT_EQ(W.finish(), "{\"empty_object\": {}, \"empty_array\": [], "
                        "\"nested\": [{\"a\": 1, \"b\": [2, 3]}, []]}");
}

TEST(ObsJsonWriter, WritesNaNAndInfinityAsZero) {
  obs::JsonWriter W;
  W.beginObject()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(W.finish(), "{\"nan\": 0, \"inf\": 0}");
}

TEST(ObsJsonWriter, PutsNoTrailingCommasAndClosesWhatIsOpen) {
  // A report cut short (a verb failing part-way) still finishes as one
  // well-formed document: finish() closes every open scope.
  obs::JsonWriter W;
  W.beginObject().field("x", 1).key("list").beginArray().value(1).value(2);
  std::string Json = W.finish();
  EXPECT_EQ(Json, "{\"x\": 1, \"list\": [1, 2]}");
  EXPECT_EQ(Json.find(", ]"), std::string::npos);
  EXPECT_EQ(Json.find(", }"), std::string::npos);
  EXPECT_EQ(Json.find(",]"), std::string::npos);
  EXPECT_EQ(Json.find(",}"), std::string::npos);
}

TEST(ObsJsonWriter, SplicesARenderedValue) {
  obs::JsonWriter Inner;
  Inner.beginObject().field("k", "v");
  obs::JsonWriter W;
  W.beginObject().field("a", 1).key("body").raw(Inner.finish()).field("z", 2);
  EXPECT_EQ(W.finish(), "{\"a\": 1, \"body\": {\"k\": \"v\"}, \"z\": 2}");
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, JsonExportIsValidAndRoundTripsValues) {
  obs::metrics().counter("round.trip").add(12345);
  obs::metrics().gauge("round.gauge").set(-7);
  { obs::PhaseSpan Span("round_span"); }

  std::string Json = obs::exportMetricsJson(obs::metrics());
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json;
  EXPECT_NE(Json.find("\"round.trip\": 12345"), std::string::npos);
  EXPECT_NE(Json.find("\"round.gauge\": -7"), std::string::npos);
  EXPECT_NE(Json.find("\"round_span\""), std::string::npos);
  EXPECT_NE(Json.find("\"schema\": \"twpp-metrics-v1\""), std::string::npos);
}

TEST_F(ObsTest, JsonLinesExportIsValidPerLine) {
  obs::metrics().counter("lines.counter").add(3);
  { obs::PhaseSpan Span("lines_span"); }
  std::string Lines =
      obs::exportMetricsJsonLines(obs::metrics(), "unit-test");
  ASSERT_FALSE(Lines.empty());
  size_t Start = 0, LineCount = 0;
  while (Start < Lines.size()) {
    size_t End = Lines.find('\n', Start);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Lines.substr(Start, End - Start);
    JsonChecker Checker(Line);
    EXPECT_TRUE(Checker.valid()) << Line;
    EXPECT_NE(Line.find("\"label\": \"unit-test\""), std::string::npos);
    ++LineCount;
    Start = End + 1;
  }
  EXPECT_GE(LineCount, 2u);
}

TEST_F(ObsTest, TableExportListsEveryKind) {
  obs::metrics().counter("table.counter").add(1);
  obs::metrics().gauge("table.gauge").set(2);
  { obs::PhaseSpan Span("table_span"); }
  std::string Table = obs::renderMetricsTable(obs::metrics());
  EXPECT_NE(Table.find("table.counter"), std::string::npos);
  EXPECT_NE(Table.find("table.gauge"), std::string::npos);
  EXPECT_NE(Table.find("table_span"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (--metrics-format=prom)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, PromExportSanitizesNamesAndPrefixes) {
  obs::metrics().counter("partition.block_events").add(7);
  obs::metrics().gauge("weird name-with.dots").set(3);
  std::string Prom = obs::exportMetricsProm(obs::metrics());
  // Dots (and anything outside [a-zA-Z0-9_:]) flatten to '_' under the
  // twpp_ namespace; the raw name survives in HELP for humans.
  EXPECT_NE(Prom.find("# TYPE twpp_partition_block_events counter"),
            std::string::npos)
      << Prom;
  EXPECT_NE(Prom.find("\ntwpp_partition_block_events 7\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("# TYPE twpp_weird_name_with_dots gauge"),
            std::string::npos);
  EXPECT_NE(Prom.find("\ntwpp_weird_name_with_dots 3\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("# HELP twpp_partition_block_events TWPP counter "
                      "partition.block_events"),
            std::string::npos);
}

TEST_F(ObsTest, PromExportEscapesLabelValues) {
  {
    obs::PhaseSpan Hostile("path\"quote\\slash\nnewline");
  }
  std::string Prom = obs::exportMetricsProm(obs::metrics());
  // Exposition-format label escaping: \" for quote, \\ for backslash,
  // \n (two characters) for line feed — and no raw newline inside the
  // braces.
  EXPECT_NE(
      Prom.find("twpp_span_count{path=\"path\\\"quote\\\\slash\\nnewline\"}"),
      std::string::npos)
      << Prom;
  for (size_t At = Prom.find('{'); At != std::string::npos;
       At = Prom.find('{', At + 1)) {
    size_t Close = Prom.find('}', At);
    ASSERT_NE(Close, std::string::npos);
    EXPECT_EQ(Prom.find('\n', At), Prom.find('\n', Close))
        << "raw newline inside a label set";
  }
}

TEST_F(ObsTest, PromExportCoversSpansWithPathLabels) {
  {
    obs::PhaseSpan Outer("outer");
    obs::PhaseSpan Inner("inner");
  }
  std::string Prom = obs::exportMetricsProm(obs::metrics());
  EXPECT_NE(Prom.find("twpp_span_count{path=\"outer\"} 1\n"),
            std::string::npos)
      << Prom;
  EXPECT_NE(Prom.find("twpp_span_count{path=\"outer/inner\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Prom.find("twpp_span_total_us{path=\"outer/inner\"}"),
            std::string::npos);
  EXPECT_NE(Prom.find("twpp_span_self_us{path=\"outer\"}"),
            std::string::npos);
  // Every non-comment line is "name{labels} value" or "name value" with
  // a numeric value.
  size_t Start = 0;
  while (Start < Prom.size()) {
    size_t End = Prom.find('\n', Start);
    ASSERT_NE(End, std::string::npos) << "missing trailing newline";
    std::string Line = Prom.substr(Start, End - Start);
    Start = End + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    char *Rest = nullptr;
    std::strtod(Line.c_str() + Space + 1, &Rest);
    EXPECT_EQ(*Rest, '\0') << "non-numeric sample value: " << Line;
  }
}

TEST_F(ObsTest, CanonicalRegistrationMakesExportsEnumerateAllStages) {
  obs::names::registerCanonicalMetrics(obs::metrics());
  std::string Json = obs::exportMetricsJson(obs::metrics());
  for (const char *Name :
       {obs::names::SequiturSymbols, obs::names::PartitionCalls,
        obs::names::DbbChains, obs::names::TimestampSets,
        obs::names::LzwCompressBytesIn, obs::names::ArchiveBlockReads,
        obs::names::DataflowQueries})
    EXPECT_NE(Json.find(std::string("\"") + Name + "\""), std::string::npos)
        << Name;
}

//===----------------------------------------------------------------------===//
// End-to-end: one pipeline run populates the expected metrics
//===----------------------------------------------------------------------===//

RawTrace loopyTrace() {
  RawTrace Trace;
  Trace.FunctionCount = 2;
  Trace.Events.push_back(TraceEvent::enter(0));
  for (int Iter = 0; Iter < 8; ++Iter) {
    Trace.Events.push_back(TraceEvent::block(1));
    Trace.Events.push_back(TraceEvent::enter(1));
    for (BlockId B = 1; B <= 6; ++B)
      Trace.Events.push_back(TraceEvent::block(B));
    Trace.Events.push_back(TraceEvent::exit());
    Trace.Events.push_back(TraceEvent::block(2));
  }
  Trace.Events.push_back(TraceEvent::exit());
  return Trace;
}

TEST_F(ObsTest, PipelineRunPopulatesEveryStage) {
  RawTrace Trace = loopyTrace();
  TwppWpp Compacted = compactWpp(Trace);

  std::string Path = ::testing::TempDir() + "obs_pipeline.twpp";
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  TwppFunctionTable Table;
  ASSERT_TRUE(Reader.extractFunction(1, Table));
  DynamicCallGraph Dcg;
  ASSERT_TRUE(Reader.readDcg(Dcg));

  buildSequiturGrammar(Trace);

  auto [StringIdx, DictIdx] = Table.Traces[0];
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Table.TraceStrings[StringIdx],
                                              Table.Dictionaries[DictIdx]);
  ASSERT_FALSE(Cfg.Nodes.empty());
  // Query a DBB head: non-head blocks are folded into chains and are not
  // addressable nodes in the collapsed CFG.
  factFrequency(Cfg, Cfg.Nodes.back().Head,
                [](BlockId) { return BlockEffect::Gen; });

  // Counters from every stage of the pipeline must be populated.
  for (const char *Name :
       {obs::names::SequiturSymbols, obs::names::SequiturRulesCreated,
        obs::names::PartitionCalls, obs::names::PartitionUniqueTraces,
        obs::names::DbbLookups, obs::names::TimestampSets,
        obs::names::LzwCompressBytesIn, obs::names::ArchiveIndexReads,
        obs::names::ArchiveBlockReads, obs::names::DataflowQueries})
    EXPECT_GT(counterValue(Name), 0u) << Name;

  // Calls: 1 root call of f0 + 8 calls of f1; 8 share one unique trace.
  EXPECT_EQ(counterValue(obs::names::PartitionCalls), 9u);
  EXPECT_EQ(counterValue(obs::names::PartitionUniqueTraces), 2u);

  // Per-stage byte gauges are populated and shrink monotonically across
  // the dedup and dictionary stages.
  int64_t PartIn = obs::metrics().gauge(obs::names::PartitionBytesIn).value();
  int64_t PartOut =
      obs::metrics().gauge(obs::names::PartitionBytesOut).value();
  int64_t DbbIn = obs::metrics().gauge(obs::names::DbbBytesIn).value();
  int64_t DbbOut = obs::metrics().gauge(obs::names::DbbBytesOut).value();
  EXPECT_GT(PartIn, PartOut);
  EXPECT_EQ(PartOut, DbbIn);
  EXPECT_GE(DbbIn, DbbOut);
  EXPECT_GT(DbbOut, 0);

  // Spans exist for the pipeline stages, nested under "compact".
  std::string Json = obs::exportMetricsJson(obs::metrics());
  for (const char *SpanPath :
       {"\"compact\"", "\"compact/partition\"", "\"compact/dbb\"",
        "\"compact/twpp\"", "\"archive_open\"", "\"archive_extract\"",
        "\"sequitur\"", "\"dataflow_query\""})
    EXPECT_NE(Json.find(SpanPath), std::string::npos) << SpanPath;

  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Regression: ArchiveReader bounds checks for unknown function ids
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, ArchiveReaderRejectsUnknownFunctionIds) {
  TwppWpp Compacted = compactWpp(loopyTrace());
  std::string Path = ::testing::TempDir() + "obs_bounds.twpp";
  ASSERT_TRUE(writeArchiveFile(Path, Compacted));
  ArchiveReader Reader;
  ASSERT_TRUE(Reader.open(Path));
  ASSERT_EQ(Reader.functionCount(), 2u);
  // Out-of-range ids must not index the table (previously UB).
  EXPECT_EQ(Reader.callCount(2), 0u);
  EXPECT_EQ(Reader.callCount(0xFFFFFFFF), 0u);
  TwppFunctionTable Table;
  EXPECT_FALSE(Reader.extractFunction(2, Table));
  EXPECT_FALSE(Reader.extractFunction(0xFFFFFFFF, Table));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Inventories: obs/Names.h against docs/OBSERVABILITY.md, and documented
// environment variables against the code that reads them
//===----------------------------------------------------------------------===//

std::string readSourceFile(const std::string &Relative) {
  std::ifstream In(std::string(TWPP_SOURCE_DIR) + "/" + Relative);
  std::stringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// Parses \p Args into \p Session's sink flags.
bool parseSinkFlags(obs::TelemetrySession &Session,
                    const std::vector<std::string> &Args) {
  cli::FlagTable Flags = Session.flags();
  std::vector<std::string> Words;
  std::string Error;
  return cli::parseArgs(Args, {&Flags}, Words, &Error) && Words.empty();
}

TEST_F(ObsTest, LabelledSessionWritesOneBlockPerCheckpoint) {
  std::string Path = ::testing::TempDir() + "/session.jsonl";
  obs::TelemetrySession Session("bench");
  EXPECT_FALSE(parseSinkFlags(Session, {"--metrics-format=prom"}))
      << "a labelled session writes JSON-lines only";
  ASSERT_TRUE(parseSinkFlags(Session, {"--metrics-out", Path}));
  Session.start();
  obs::metrics().counter(obs::names::LzwCompressCalls).add(2);
  Session.checkpoint("first");
  obs::metrics().counter(obs::names::LzwCompressCalls).add(3);
  Session.checkpoint("second");
  EXPECT_EQ(Session.finish(cli::ExitFindings), cli::ExitFindings);
  obs::setMemTrackingEnabled(false);

  std::ifstream In(Path);
  std::map<std::string, std::string> CallsPerBlock;
  size_t Lines = 0;
  for (std::string Line; std::getline(In, Line); ++Lines)
    if (Line.find(obs::names::LzwCompressCalls) != std::string::npos)
      CallsPerBlock[Line.substr(0, Line.find(','))] =
          Line.substr(Line.rfind(':') + 2);
  EXPECT_GT(Lines, 2u);
  EXPECT_EQ(CallsPerBlock["{\"label\": \"bench/first\""], "2}");
  EXPECT_EQ(CallsPerBlock["{\"label\": \"bench/second\""], "3}");
  EXPECT_EQ(CallsPerBlock.size(), 2u);
  std::remove(Path.c_str());
}

TEST_F(ObsTest, SessionExitsTwoWhenASinkCannotBeWritten) {
  obs::TelemetrySession Session;
  ASSERT_TRUE(parseSinkFlags(
      Session, {"--metrics-format=prom", "--metrics-out",
                ::testing::TempDir() + "/no-such-dir/m.prom"}));
  Session.start();
  EXPECT_EQ(Session.finish(cli::ExitSuccess), cli::ExitUsage);
  EXPECT_EQ(Session.finish(cli::ExitSuccess), cli::ExitSuccess)
      << "a session finishes once";
  obs::setMemTrackingEnabled(false);
}

TEST(MetricInventory, EveryNameIsDocumented) {
  std::string Names = readSourceFile("src/obs/Names.h");
  std::string Doc = readSourceFile("docs/OBSERVABILITY.md");
  std::string Baseline = readSourceFile("BENCH_metrics.json");
  ASSERT_FALSE(Names.empty());
  ASSERT_FALSE(Doc.empty());
  ASSERT_FALSE(Baseline.empty());

  // What registerCanonicalMetrics puts into a fresh registry, by kind.
  obs::MetricsRegistry Fresh;
  obs::names::registerCanonicalMetrics(Fresh);
  std::map<std::string, std::string> KindOf;
  for (const auto &Entry : Fresh.counterSnapshot())
    KindOf[Entry.first] = "counter";
  for (const auto &Entry : Fresh.gaugeSnapshot())
    KindOf[Entry.first] = "gauge";

  // The names obs/Names.h declares are exactly the registered ones.
  std::regex NameDecl(
      R"re(inline constexpr const char \*\w+ =\s*"([^"]+)")re");
  std::set<std::string> Declared, Registered;
  for (std::sregex_iterator It(Names.begin(), Names.end(), NameDecl), End;
       It != End; ++It)
    Declared.insert((*It)[1]);
  for (const auto &Entry : KindOf)
    Registered.insert(Entry.first);
  EXPECT_EQ(Declared, Registered)
      << "src/obs/Names.h and registerCanonicalMetrics disagree";

  // Every row of the doc's metric tables ("| `a` / `b` | counter | ...")
  // names registered metrics of the kind it states, and every registered
  // name has a row.
  std::regex Row(R"re(^\| (`[^|]*`) \| (\w+) \|)re");
  std::regex Quoted("`([^`]+)`");
  std::istringstream Lines(Doc);
  std::string Line;
  std::set<std::string> Documented;
  while (std::getline(Lines, Line)) {
    std::smatch M;
    if (!std::regex_search(Line, M, Row))
      continue;
    std::string Cell = M[1], Kind = M[2];
    for (std::sregex_iterator It(Cell.begin(), Cell.end(), Quoted), End;
         It != End; ++It) {
      std::string Name = (*It)[1];
      auto Found = KindOf.find(Name);
      if (Found == KindOf.end())
        ADD_FAILURE() << Name << " is documented in docs/OBSERVABILITY.md "
                      << "but not registered";
      else
        EXPECT_EQ(Found->second, Kind)
            << Name << "'s kind in docs/OBSERVABILITY.md";
      Documented.insert(Name);
    }
  }
  for (const std::string &Name : Registered)
    EXPECT_TRUE(Documented.count(Name))
        << Name << " is registered but has no row in docs/OBSERVABILITY.md";

  // Every counter and gauge row of the committed baseline is a registered
  // metric of the same kind, so a stale baseline row fails here.
  std::regex Record(
      R"re(^\{"label": "[^"]*", "kind": "(\w+)", "name": "([^"]+)")re");
  std::istringstream Records(Baseline);
  while (std::getline(Records, Line)) {
    if (Line.empty())
      continue;
    std::smatch M;
    ASSERT_TRUE(std::regex_search(Line, M, Record))
        << "BENCH_metrics.json line does not parse: " << Line;
    std::string Kind = M[1], Name = M[2];
    if (Kind == "span")
      continue;
    auto Found = KindOf.find(Name);
    if (Found == KindOf.end())
      ADD_FAILURE() << Name << " is in BENCH_metrics.json but not registered";
    else
      EXPECT_EQ(Found->second, Kind)
          << Name << "'s kind in BENCH_metrics.json";
  }
}

TEST(EnvInventory, EveryDocumentedVariableIsRead) {
  namespace fs = std::filesystem;
  fs::path Root(TWPP_SOURCE_DIR);
  std::string Docs = readSourceFile("README.md");
  for (const fs::directory_entry &E : fs::directory_iterator(Root / "docs"))
    if (E.path().extension() == ".md")
      Docs += readSourceFile(fs::relative(E.path(), Root).string());
  ASSERT_FALSE(Docs.empty());

  std::set<std::string> Known;
  std::regex Getenv(R"re(getenv\("(TWPP_\w+)"\))re");
  for (const char *Dir : {"src", "tools", "bench", "examples"})
    for (const fs::directory_entry &E :
         fs::recursive_directory_iterator(Root / Dir)) {
      std::string Ext = E.path().extension().string();
      if (Ext != ".cpp" && Ext != ".h")
        continue;
      std::string Code = readSourceFile(fs::relative(E.path(), Root).string());
      for (std::sregex_iterator It(Code.begin(), Code.end(), Getenv), End;
           It != End; ++It)
        Known.insert((*It)[1]);
    }
  // Guards the regex: the fault and verify switches are read.
  EXPECT_GE(Known.size(), 2u);
  std::string Cmake = readSourceFile("CMakeLists.txt");
  std::regex CacheVar(R"re((?:option\(|set\()(TWPP_\w+)[^)]*(?:CACHE|OFF|ON))re");
  for (std::sregex_iterator It(Cmake.begin(), Cmake.end(), CacheVar), End;
       It != End; ++It)
    Known.insert((*It)[1]);

  std::regex Var(R"re(\bTWPP_[A-Z0-9_]+)re");
  for (std::sregex_iterator It(Docs.begin(), Docs.end(), Var), End;
       It != End; ++It)
    EXPECT_TRUE(Known.count(It->str()))
        << It->str() << " is documented in README.md or docs/ but no "
        << "getenv reads it and CMakeLists.txt declares no such cache "
        << "variable";
}

} // namespace
