//===- obs/Trace.cpp - Chrome trace-event JSON exporter -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"
#include "support/FileIO.h"

#include <cinttypes>
#include <cstdio>

using namespace twpp;
using namespace twpp::obs;

namespace {

/// Microseconds with sub-us precision, the unit chrome://tracing expects
/// in "ts".
std::string tsUs(uint64_t TsNs, uint64_t BaseNs) {
  char Buffer[48];
  uint64_t Delta = TsNs >= BaseNs ? TsNs - BaseNs : 0;
  std::snprintf(Buffer, sizeof(Buffer), "%" PRIu64 ".%03u", Delta / 1000,
                static_cast<unsigned>(Delta % 1000));
  return Buffer;
}

/// An event object holding the fields every event shares; the caller
/// adds the rest. \p Ph is the trace-event phase letter.
JsonWriter eventHead(const char *Ph, uint32_t Tid, uint64_t TsNs,
                     uint64_t BaseNs) {
  JsonWriter Event;
  Event.beginObject().field("ph", Ph).field("pid", 1).field("tid", Tid);
  Event.key("ts").raw(tsUs(TsNs, BaseNs));
  return Event;
}

void appendEvent(std::string &Out, bool &First, std::string Event) {
  Out += First ? "\n    " : ",\n    ";
  Out += Event;
  First = false;
}

} // namespace

std::string obs::exportTraceJson(const TraceRecorder &Recorder) {
  std::vector<TraceRecorder::ThreadSnapshot> Threads = Recorder.snapshot();

  // Normalize timestamps to the earliest surviving event so the viewer
  // opens at t=0 instead of hours of steady-clock uptime.
  uint64_t BaseNs = UINT64_MAX;
  for (const auto &T : Threads)
    for (const TraceRecord &R : T.Records)
      if (R.TsNs < BaseNs)
        BaseNs = R.TsNs;
  if (BaseNs == UINT64_MAX)
    BaseNs = 0;

  std::string Out = "{\n  \"traceEvents\": [";
  bool First = true;

  std::string ProcessMeta =
      "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"ts\": 0, "
      "\"name\": \"process_name\", \"args\": {\"name\": \"twpp\"}}";
  appendEvent(Out, First, std::move(ProcessMeta));

  uint64_t TotalDropped = 0;
  for (const auto &T : Threads) {
    TotalDropped += T.Dropped;
    appendEvent(Out, First,
                "{\"ph\": \"M\", \"pid\": 1, \"tid\": " +
                    std::to_string(T.Tid) + ", \"ts\": 0, "
                    "\"name\": \"thread_name\", \"args\": {\"name\": " +
                    jsonStringLiteral(T.Name) + "}}");

    // Re-balance B/E against ring wraparound: an E whose B was
    // overwritten is dropped, a B still open at the window's end gets a
    // synthetic E at the thread's last timestamp, so every exported tid
    // carries balanced, properly nested slices.
    uint64_t Depth = 0;
    uint64_t LastTs = BaseNs;
    for (const TraceRecord &R : T.Records) {
      LastTs = R.TsNs;
      switch (R.K) {
      case TraceRecord::Kind::Begin: {
        ++Depth;
        JsonWriter Event = eventHead("B", T.Tid, R.TsNs, BaseNs);
        Event.field("name", R.Name);
        if (R.HasArg)
          Event.beginObject("args").field(R.ArgName, R.Value);
        appendEvent(Out, First, Event.finish());
        break;
      }
      case TraceRecord::Kind::End: {
        if (Depth == 0)
          break; // Opening B lost to wraparound.
        --Depth;
        appendEvent(Out, First, eventHead("E", T.Tid, R.TsNs, BaseNs).finish());
        break;
      }
      case TraceRecord::Kind::Instant: {
        JsonWriter Event = eventHead("i", T.Tid, R.TsNs, BaseNs);
        Event.field("name", R.Name).field("s", "t");
        if (R.HasArg)
          Event.beginObject("args").field(R.ArgName, R.Value);
        appendEvent(Out, First, Event.finish());
        break;
      }
      case TraceRecord::Kind::Counter: {
        JsonWriter Event = eventHead("C", T.Tid, R.TsNs, BaseNs);
        Event.field("name", R.Name).beginObject("args").field("value", R.Value);
        appendEvent(Out, First, Event.finish());
        break;
      }
      }
    }
    for (; Depth > 0; --Depth)
      appendEvent(Out, First, eventHead("E", T.Tid, LastTs, BaseNs).finish());
  }

  Out += "\n  ],\n  \"displayTimeUnit\": \"ms\",\n"
         "  \"otherData\": {\"schema\": \"twpp-trace-v1\", "
         "\"dropped_events\": " +
         std::to_string(TotalDropped) + "}\n}\n";
  return Out;
}

bool obs::writeTraceJsonFile(const std::string &Path,
                             const TraceRecorder &Recorder) {
  std::string Json = exportTraceJson(Recorder);
  return writeFileBytes(Path, std::vector<uint8_t>(Json.begin(), Json.end()))
      .ok();
}
