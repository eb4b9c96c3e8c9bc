//===- tests/ObsTraceTest.cpp - Flight recorder & trace export tests -------===//
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
#include "obs/Trace.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

using namespace twpp;

namespace {

/// Every test starts from a quiet recorder with tracing on; both switches
/// are restored to off so other tests in the process stay unaffected.
/// Rings created by earlier tests persist (they are never destroyed), so
/// assertions count records, not rings.
class ObsTraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setTracingEnabled(true);
    obs::traceRecorder().reset();
    obs::metrics().reset();
  }
  void TearDown() override {
    obs::setTracingEnabled(false);
    obs::setMetricsEnabled(false);
    obs::traceRecorder().reset();
    obs::metrics().reset();
  }
};

uint64_t totalRecords() {
  uint64_t Total = 0;
  for (const auto &T : obs::traceRecorder().snapshot())
    Total += T.Records.size();
  return Total;
}

//===----------------------------------------------------------------------===//
// A minimal JSON syntax checker (mirrors ObsTest.cpp): enough to assert
// the exporter emits one well-formed document.
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
    ++Pos;
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
    ++Pos;
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
    ++Pos;
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

//===----------------------------------------------------------------------===//
// Exported-event extraction: the exporter writes one event per line, so
// field scraping per line is enough to validate the timeline's shape.
//===----------------------------------------------------------------------===//

struct ExportedEvent {
  char Ph = 0;
  long Tid = -1;
  double Ts = -1;
  bool HasPid = false;
  std::string Line;
};

std::vector<ExportedEvent> exportedEvents(const std::string &Json) {
  std::vector<ExportedEvent> Out;
  size_t Start = 0;
  while (Start < Json.size()) {
    size_t End = Json.find('\n', Start);
    if (End == std::string::npos)
      End = Json.size();
    std::string Line = Json.substr(Start, End - Start);
    Start = End + 1;
    size_t PhPos = Line.find("\"ph\": \"");
    if (PhPos == std::string::npos)
      continue;
    ExportedEvent E;
    E.Line = Line;
    E.Ph = Line[PhPos + 7];
    if (size_t P = Line.find("\"tid\": "); P != std::string::npos)
      E.Tid = std::strtol(Line.c_str() + P + 7, nullptr, 10);
    if (size_t P = Line.find("\"ts\": "); P != std::string::npos)
      E.Ts = std::strtod(Line.c_str() + P + 6, nullptr);
    E.HasPid = Line.find("\"pid\": ") != std::string::npos;
    Out.push_back(std::move(E));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Ring buffer semantics
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, RingWraparoundKeepsNewestEvents) {
  obs::TraceRing Ring(7, "wrap", 4);
  for (int I = 0; I < 10; ++I)
    Ring.push(obs::TraceRecord::Kind::Instant, "e" + std::to_string(I),
              nullptr, I, true);
  EXPECT_EQ(Ring.pushCount(), 10u);

  std::vector<obs::TraceRecord> Window = Ring.drainOrdered();
  ASSERT_EQ(Window.size(), 4u); // capacity, oldest overwritten
  for (size_t I = 0; I < Window.size(); ++I) {
    EXPECT_EQ(std::string(Window[I].Name), "e" + std::to_string(6 + I));
    EXPECT_EQ(Window[I].Value, static_cast<int64_t>(6 + I));
  }
  // Oldest-first order means timestamps never go backwards.
  for (size_t I = 1; I < Window.size(); ++I)
    EXPECT_GE(Window[I].TsNs, Window[I - 1].TsNs);
}

TEST_F(ObsTraceTest, RingTruncatesLongNamesWithoutAllocating) {
  obs::TraceRing Ring(0, "trunc", 8);
  std::string Long(200, 'x');
  Ring.push(obs::TraceRecord::Kind::Begin, Long, "long_arg_name_beyond", 1,
            true);
  std::vector<obs::TraceRecord> Window = Ring.drainOrdered();
  ASSERT_EQ(Window.size(), 1u);
  EXPECT_EQ(std::string(Window[0].Name).size(),
            obs::TraceRecord::NameCapacity - 1);
  EXPECT_EQ(std::string(Window[0].ArgName).size(),
            obs::TraceRecord::ArgNameCapacity - 1);
}

TEST_F(ObsTraceTest, SnapshotReportsDroppedCount) {
  obs::traceRecorder().setRingCapacity(8);
  obs::traceRecorder().reset();
  for (int I = 0; I < 20; ++I)
    obs::traceInstant("spin");
  bool Checked = false;
  for (const auto &T : obs::traceRecorder().snapshot()) {
    if (T.Records.empty())
      continue;
    EXPECT_EQ(T.Records.size(), 8u);
    EXPECT_EQ(T.Dropped, 12u);
    Checked = true;
  }
  EXPECT_TRUE(Checked);
  // Restore the default so later tests get full-size rings.
  obs::traceRecorder().setRingCapacity(
      obs::TraceRecorder::DefaultRingCapacity);
  obs::traceRecorder().reset();
}

TEST_F(ObsTraceTest, DrainFromReturnsOnlyNewRecords) {
  obs::TraceRing Ring(9, "drain", 8);
  uint64_t Cursor = 0, Lost = 0;
  for (int I = 0; I < 3; ++I)
    Ring.push(obs::TraceRecord::Kind::Instant, "a" + std::to_string(I),
              nullptr, I, true);
  std::vector<obs::TraceRecord> First = Ring.drainFrom(Cursor, Lost);
  ASSERT_EQ(First.size(), 3u);
  EXPECT_EQ(Lost, 0u);
  EXPECT_EQ(Cursor, 3u);

  // Nothing new: empty drain, cursor stays put.
  EXPECT_TRUE(Ring.drainFrom(Cursor, Lost).empty());
  EXPECT_EQ(Cursor, 3u);

  for (int I = 3; I < 5; ++I)
    Ring.push(obs::TraceRecord::Kind::Instant, "a" + std::to_string(I),
              nullptr, I, true);
  std::vector<obs::TraceRecord> Second = Ring.drainFrom(Cursor, Lost);
  ASSERT_EQ(Second.size(), 2u);
  EXPECT_EQ(Lost, 0u);
  EXPECT_EQ(std::string(Second[0].Name), "a3");
  EXPECT_EQ(std::string(Second[1].Name), "a4");
}

TEST_F(ObsTraceTest, DrainFromCountsRecordsLostToWraparound) {
  obs::TraceRing Ring(9, "drainwrap", 4);
  uint64_t Cursor = 0, Lost = 0;
  // 10 pushes through a 4-slot ring: the first 6 are gone by drain time.
  for (int I = 0; I < 10; ++I)
    Ring.push(obs::TraceRecord::Kind::Instant, "e" + std::to_string(I),
              nullptr, I, true);
  std::vector<obs::TraceRecord> Window = Ring.drainFrom(Cursor, Lost);
  ASSERT_EQ(Window.size(), 4u);
  EXPECT_EQ(Lost, 6u);
  EXPECT_EQ(Cursor, 10u);
  for (size_t I = 0; I < Window.size(); ++I)
    EXPECT_EQ(std::string(Window[I].Name), "e" + std::to_string(6 + I));

  // A second overflow between drains is charged to Lost as well.
  for (int I = 10; I < 19; ++I)
    Ring.push(obs::TraceRecord::Kind::Instant, "e" + std::to_string(I),
              nullptr, I, true);
  Window = Ring.drainFrom(Cursor, Lost);
  ASSERT_EQ(Window.size(), 4u);
  EXPECT_EQ(Lost, 6u + 5u);
  EXPECT_EQ(std::string(Window[0].Name), "e15");
}

TEST_F(ObsTraceTest, RingOverflowBumpsLiveDroppedEventsCounter) {
  obs::setMetricsEnabled(true);
  obs::metrics().reset();
  obs::traceRecorder().setRingCapacity(8);
  obs::traceRecorder().reset();
  for (int I = 0; I < 20; ++I)
    obs::traceInstant("spill");
  // 20 pushes into 8 slots: 12 overwrites, published live without any
  // export in the loop.
  uint64_t Dropped =
      obs::metrics().counter(obs::droppedEventsMetricName()).value();
  EXPECT_EQ(Dropped, 12u);
  obs::traceRecorder().setRingCapacity(
      obs::TraceRecorder::DefaultRingCapacity);
  obs::traceRecorder().reset();
}

TEST_F(ObsTraceTest, DroppedEventsMetricNameMatchesCanonicalName) {
  // The live counter in TraceRing::push and the canonical registry must
  // agree, or the pre-registered export shows a forever-zero series.
  EXPECT_STREQ(obs::droppedEventsMetricName(),
               obs::names::TraceDroppedEvents);
}

//===----------------------------------------------------------------------===//
// Disabled path
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, DisabledTracingRecordsNothing) {
  obs::setTracingEnabled(false);
  obs::traceBegin("off", "arg", 1);
  obs::traceEnd();
  obs::traceInstant("off");
  obs::traceCounter("off", 42);
  { obs::PhaseSpan Span("off_span"); }
  EXPECT_EQ(totalRecords(), 0u);
}

//===----------------------------------------------------------------------===//
// Export format
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, ExportIsValidJsonWithRequiredFields) {
  obs::setCurrentThreadName("main");
  obs::traceBegin("slice", "function", 12);
  obs::traceInstant("moment", "bytes", 99);
  obs::traceCounter("depth", 3);
  obs::traceEnd();

  std::string Json = obs::exportTraceJson(obs::traceRecorder());
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json;

  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"main\""), std::string::npos);
  EXPECT_NE(Json.find("\"schema\": \"twpp-trace-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"args\": {\"function\": 12}"), std::string::npos);
  EXPECT_NE(Json.find("\"args\": {\"value\": 3}"), std::string::npos);

  // Every event carries ph/pid/tid/ts, and per tid timestamps are
  // monotone in export order.
  std::vector<ExportedEvent> Events = exportedEvents(Json);
  ASSERT_GE(Events.size(), 6u); // 2 meta + B/i/C/E
  std::set<char> Phases;
  for (const ExportedEvent &E : Events) {
    EXPECT_TRUE(E.HasPid) << E.Line;
    EXPECT_GE(E.Tid, 0) << E.Line;
    EXPECT_GE(E.Ts, 0.0) << E.Line;
    Phases.insert(E.Ph);
  }
  for (char Ph : {'M', 'B', 'E', 'i', 'C'})
    EXPECT_TRUE(Phases.count(Ph)) << Ph;
  std::vector<double> LastTs(64, 0.0);
  for (const ExportedEvent &E : Events) {
    if (E.Ph == 'M')
      continue;
    ASSERT_LT(static_cast<size_t>(E.Tid), LastTs.size());
    EXPECT_GE(E.Ts, LastTs[E.Tid]) << E.Line;
    LastTs[E.Tid] = E.Ts;
  }
}

TEST_F(ObsTraceTest, ExportBalancesBeginEndPerTid) {
  // An orphaned E (its B lost to wraparound) must be dropped and an
  // unclosed B must gain a synthetic close, so viewers never see a
  // mismatched stack.
  obs::traceEnd(); // orphan
  obs::traceBegin("outer");
  obs::traceBegin("inner");
  obs::traceEnd(); // closes inner; outer left open on purpose

  std::string Json = obs::exportTraceJson(obs::traceRecorder());
  std::vector<long> Depth(64, 0);
  for (const ExportedEvent &E : exportedEvents(Json)) {
    ASSERT_LT(static_cast<size_t>(std::max(E.Tid, 0L)), Depth.size());
    if (E.Ph == 'B')
      ++Depth[E.Tid];
    else if (E.Ph == 'E') {
      --Depth[E.Tid];
      EXPECT_GE(Depth[E.Tid], 0) << "E before any B on tid " << E.Tid;
    }
  }
  for (long D : Depth)
    EXPECT_EQ(D, 0);
}

TEST_F(ObsTraceTest, ExportEscapesHostileNames) {
  obs::traceInstant("quote\" back\\slash\nnewline");
  std::string Json = obs::exportTraceJson(obs::traceRecorder());
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json;
  EXPECT_NE(Json.find("quote\\\" back\\\\slash\\u000anewline"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span attribution through parallelFor
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, PoolTaskSpansNestUnderEnqueuingPhase) {
  obs::setMetricsEnabled(true);
  obs::metrics().reset();
  {
    obs::PhaseSpan Outer("compact");
    obs::PhaseSpan Stage("dbb");
    parallelFor(ParallelConfig::withJobs(2), 4,
                [](size_t) { obs::PhaseSpan Work("task_work"); });
  }

  std::set<std::string> Paths;
  for (const auto &Span : obs::metrics().spanSnapshot())
    Paths.insert(Span.Path);
  EXPECT_TRUE(Paths.count("compact"));
  EXPECT_TRUE(Paths.count("compact/dbb"));
  // The worker-side wrapper span inherits the calling thread's path...
  EXPECT_TRUE(Paths.count("compact/dbb/pool")) << "no attributed pool span";
  // ...and spans the loop body opens nest beneath it.
  EXPECT_TRUE(Paths.count("compact/dbb/pool/task_work"));
  EXPECT_FALSE(Paths.count("pool")) << "unattributed root pool span";

  // The trace timeline shows the same nesting: worker tids carry "pool"
  // Begin slices.
  std::string Json = obs::exportTraceJson(obs::traceRecorder());
  EXPECT_NE(Json.find("\"name\": \"pool\""), std::string::npos);
}

TEST_F(ObsTraceTest, AttributionWorksWithMetricsOnlyToo) {
  // Tracing off, metrics on: the workers still inherit the caller's path.
  obs::setTracingEnabled(false);
  obs::setMetricsEnabled(true);
  obs::metrics().reset();
  {
    obs::PhaseSpan Stage("dbb");
    parallelFor(ParallelConfig::withJobs(2), 2,
                [](size_t) { obs::PhaseSpan Work("task_work"); });
  }
  std::set<std::string> Paths;
  for (const auto &Span : obs::metrics().spanSnapshot())
    Paths.insert(Span.Path);
  EXPECT_TRUE(Paths.count("dbb/pool"));
  EXPECT_TRUE(Paths.count("dbb/pool/task_work"));
  EXPECT_EQ(totalRecords(), 0u); // nothing leaked into the rings
}

//===----------------------------------------------------------------------===//
// Shared JSON escaping helper (used by both exporters)
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, JsonStringLiteralEscapes) {
  EXPECT_EQ(obs::jsonStringLiteral("plain"), "\"plain\"");
  EXPECT_EQ(obs::jsonStringLiteral("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::jsonStringLiteral("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::jsonStringLiteral(std::string_view("\n\t\x01", 3)),
            "\"\\u000a\\u0009\\u0001\"");
  // High bytes pass through untouched (UTF-8 stays UTF-8), and must not
  // be sign-extended into bogus escapes.
  EXPECT_EQ(obs::jsonStringLiteral("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
}

TEST_F(ObsTraceTest, MetricsExportEscapesHostileNames) {
  obs::setMetricsEnabled(true);
  obs::metrics().counter("weird\"name\\with\njunk").add(5);
  std::string Json = obs::exportMetricsJson(obs::metrics());
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json;
  EXPECT_NE(Json.find("weird\\\"name\\\\with\\u000ajunk"),
            std::string::npos);

  std::string Lines = obs::exportMetricsJsonLines(obs::metrics(),
                                                  "label\"with quote");
  size_t Start = 0;
  while (Start < Lines.size()) {
    size_t End = Lines.find('\n', Start);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Lines.substr(Start, End - Start);
    JsonChecker LineChecker(Line);
    EXPECT_TRUE(LineChecker.valid()) << Line;
    Start = End + 1;
  }
}

//===----------------------------------------------------------------------===//
// Memory counter tracks (obs/Memory.h sampling into the flight recorder)
//===----------------------------------------------------------------------===//

TEST_F(ObsTraceTest, MemorySampleEmitsCounterTracks) {
  bool WasTracking = obs::memTrackingEnabled();
  obs::setMemTrackingEnabled(true);
  obs::memAlloc("test.sample", 4096);

  obs::sampleMemoryCounters();

  bool SawRss = false, SawTag = false;
  for (const auto &T : obs::traceRecorder().snapshot())
    for (const auto &R : T.Records) {
      if (R.K != obs::TraceRecord::Kind::Counter)
        continue;
      if (std::string_view(R.Name) == "mem.rss_bytes") {
        SawRss = true;
        EXPECT_GT(R.Value, 0); // /proc/self/statm exists on Linux CI
      }
      if (std::string_view(R.Name) == "mem.live_bytes/test.sample") {
        SawTag = true;
        EXPECT_EQ(R.Value, 4096);
      }
    }
  EXPECT_TRUE(SawRss);
  EXPECT_TRUE(SawTag);

  obs::memFree("test.sample", 4096);
  obs::setMemTrackingEnabled(WasTracking);
}

TEST_F(ObsTraceTest, MemorySampleIsInertWithTracingOff) {
  obs::setTracingEnabled(false);
  bool WasTracking = obs::memTrackingEnabled();
  obs::setMemTrackingEnabled(true);
  obs::sampleMemoryCounters();
  EXPECT_EQ(totalRecords(), 0u);
  obs::setMemTrackingEnabled(WasTracking);
}

} // namespace
