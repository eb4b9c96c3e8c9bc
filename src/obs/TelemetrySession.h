//===- obs/TelemetrySession.h - A front end's telemetry sinks ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a front end (the twpp CLI, a bench binary, an example) does
/// to turn telemetry on from its command line and write it out at exit.
/// The sink flags are declared here once:
///
///   --metrics-out PATH          the metrics registry, as --metrics-format
///   --metrics-format json|prom  (a labelled session writes JSON-lines)
///   --metrics-table             metric tables on stderr
///   --trace-out PATH            a Chrome trace-event JSON timeline
///   --self-profile PATH         this run compacted into a TWPP archive
///
/// A metrics sink turns the registry on with every canonical metric
/// pre-registered; a metrics or trace sink also turns on memory tracking
/// and the RSS poller. Nothing is collected when no flag names a sink.
///
///   obs::TelemetrySession Telemetry;
///   if (!Telemetry.parseCommandLine(Argc, Argv))
///     return cli::ExitUsage;
///   Telemetry.start();
///   ...
///   return Telemetry.finish(Exit);
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_TELEMETRYSESSION_H
#define TWPP_OBS_TELEMETRYSESSION_H

#include "obs/SelfProfile.h"
#include "support/CliCommon.h"

#include <memory>
#include <string>

namespace twpp::obs {

class TelemetrySession {
public:
  /// A session with a \p Label (a bench name) writes `--metrics-out` as
  /// JSON-lines: one block per checkpoint(), labelled "<Label>/<stage>",
  /// or one block labelled "<Label>" when the run made no checkpoint.
  explicit TelemetrySession(std::string Label = "");
  /// Finishes a started session that finish() was not called on.
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession &) = delete;
  TelemetrySession &operator=(const TelemetrySession &) = delete;

  /// The sink flags, storing into this session.
  cli::FlagTable flags();

  /// Parses the words after \p Argv[0] against \p Own plus flags(). A
  /// bad flag or any positional word prints the usage to stderr.
  /// \returns false then.
  bool parseCommandLine(int Argc, char **Argv, cli::FlagTable Own = {});

  /// Arms what the flags asked for. \p CompareTraceJson also measures
  /// the self-profile's equivalent Chrome-JSON size into its sidecar.
  void start(bool CompareTraceJson = false);

  /// A stage boundary: a trace instant named \p Stage and a self-profile
  /// drain. A labelled session also appends the registry as the block
  /// "<Label>/<Stage>", then zeroes it and the memory peaks, so each
  /// block carries that stage's own figures.
  void checkpoint(const std::string &Stage);

  /// Finishes the self-profile, stops the poller, publishes the mem.*
  /// gauges, then writes the metrics, the table and the trace.
  /// \returns \p Exit; cli::ExitUsage when a telemetry file cannot be
  /// written; cli::ExitFindings when the self-profile fails and \p Exit
  /// was 0.
  int finish(int Exit);

private:
  bool metricsOn() const { return !MetricsOut.empty() || MetricsTable; }
  bool memoryOn() const { return metricsOn() || !TraceOut.empty(); }
  /// Publishes the mem.* gauges and adds the registry to Exported.
  void exportMetrics(const std::string &BlockLabel);

  std::string Label;
  std::string MetricsOut;
  std::string MetricsFormat = "json";
  bool MetricsTable = false;
  std::string TraceOut;
  std::string SelfProfilePath;

  std::unique_ptr<SelfProfiler> Profiler;
  std::string Exported; ///< The --metrics-out document so far.
  bool Started = false;
  bool Finished = false;
};

} // namespace twpp::obs

#endif // TWPP_OBS_TELEMETRYSESSION_H
