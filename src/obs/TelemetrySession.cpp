//===- obs/TelemetrySession.cpp - A front end's telemetry sinks -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "obs/TelemetrySession.h"

#include "obs/Export.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/Trace.h"
#include "support/FileIO.h"

#include <cstdio>
#include <vector>

using namespace twpp;
using namespace twpp::obs;

TelemetrySession::TelemetrySession(std::string Label)
    : Label(std::move(Label)) {}

TelemetrySession::~TelemetrySession() { finish(cli::ExitSuccess); }

cli::FlagTable TelemetrySession::flags() {
  std::vector<std::string> Formats = {"json"};
  if (Label.empty())
    Formats.push_back("prom");
  return {
      cli::stringFlag("metrics-out", "PATH", "write pipeline telemetry",
                      MetricsOut),
      cli::choiceFlag("metrics-format", "format of --metrics-out",
                      MetricsFormat, Formats),
      cli::switchFlag("metrics-table", "print telemetry tables to stderr",
                      MetricsTable),
      cli::stringFlag("trace-out", "PATH",
                      "write a Chrome trace-event JSON timeline", TraceOut),
      cli::stringFlag("self-profile", "PATH",
                      "compact this run into a TWPP archive (+ PATH.meta)",
                      SelfProfilePath),
  };
}

bool TelemetrySession::parseCommandLine(int Argc, char **Argv,
                                        cli::FlagTable Own) {
  cli::FlagTable Sinks = flags();
  Own.insert(Own.end(), Sinks.begin(), Sinks.end());
  std::vector<std::string> Words;
  std::string Error;
  if (cli::parseArgs({Argv + 1, Argv + Argc}, {&Own}, Words, &Error) &&
      Words.empty())
    return true;
  if (Error.empty())
    Error = "unexpected argument '" + Words[0] + "'";
  std::fprintf(stderr, "%s: %s\nusage: %s [flags]\nflags:\n%s", Argv[0],
               Error.c_str(), Argv[0], cli::renderFlags(Own).c_str());
  return false;
}

void TelemetrySession::start(bool CompareTraceJson) {
  Started = true;
  if (metricsOn()) {
    setMetricsEnabled(true);
    // Pre-register every canonical metric so the export enumerates all
    // pipeline stages, zero-valued when this run does not reach them.
    names::registerCanonicalMetrics(metrics());
  }
  if (!TraceOut.empty())
    setTracingEnabled(true);
  if (!SelfProfilePath.empty())
    Profiler = std::make_unique<SelfProfiler>(
        SelfProfileConfig{SelfProfilePath, CompareTraceJson});
  if (Profiler || !TraceOut.empty())
    setCurrentThreadName("main");
  if (memoryOn()) {
    // Memory telemetry rides along with either sink: the tracker feeds
    // the mem.tracked_* gauges and the poller samples RSS (emitting
    // counter tracks when tracing).
    setMemTrackingEnabled(true);
    startMemPoller();
  }
}

void TelemetrySession::checkpoint(const std::string &Stage) {
  traceInstant(Stage);
  // Keeps the profiler's buffers ahead of ring wraparound.
  if (Profiler)
    Profiler->drain();
  if (Label.empty() || !metricsOn())
    return;
  exportMetrics(Label + "/" + Stage);
  if (MetricsTable)
    std::fputs(renderMetricsTable(metrics()).c_str(), stderr);
  memTracker().reset();
  metrics().reset();
}

void TelemetrySession::exportMetrics(const std::string &BlockLabel) {
  publishMemMetrics(metrics());
  if (!Label.empty())
    Exported += exportMetricsJsonLines(metrics(), BlockLabel);
  else if (MetricsFormat == "prom")
    Exported = exportMetricsProm(metrics());
  else
    Exported = exportMetricsJson(metrics());
}

int TelemetrySession::finish(int Exit) {
  if (!Started || Finished)
    return Exit;
  Finished = true;
  // The self-profile goes first so the selfprof.* counters it publishes
  // land in the metrics export.
  if (Profiler) {
    SelfProfileStats Stats;
    std::string Error;
    if (Profiler->finish(Stats, &Error)) {
      std::fprintf(stderr,
                   "self-profile: wrote %llu spans (%llu events, %llu "
                   "functions, %llu records dropped)\n",
                   (unsigned long long)Stats.Spans,
                   (unsigned long long)Stats.Events,
                   (unsigned long long)Stats.Functions,
                   (unsigned long long)Stats.RecordsDropped);
    } else {
      std::fprintf(stderr, "cannot write self-profile: %s\n", Error.c_str());
      if (Exit == cli::ExitSuccess)
        Exit = cli::ExitFindings;
    }
  }
  if (memoryOn())
    stopMemPoller();
  // A labelled run that made checkpoints has exported every block.
  bool Final = metricsOn() && (Label.empty() || Exported.empty());
  if (Final)
    exportMetrics(Label);
  // A telemetry file that cannot be written is fatal IO.
  if (!MetricsOut.empty() &&
      !writeFileBytes(MetricsOut, {Exported.begin(), Exported.end()}).ok()) {
    std::fprintf(stderr, "cannot write metrics to %s\n", MetricsOut.c_str());
    Exit = cli::ExitUsage;
  }
  if (Final && MetricsTable)
    std::fputs(renderMetricsTable(metrics()).c_str(), stderr);
  if (!TraceOut.empty() && !writeTraceJsonFile(TraceOut, traceRecorder())) {
    std::fprintf(stderr, "cannot write trace to %s\n", TraceOut.c_str());
    Exit = cli::ExitUsage;
  }
  return Exit;
}
