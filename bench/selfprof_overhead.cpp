//===- bench/selfprof_overhead.cpp - Self-profiling overhead ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Measures what continuous self-profiling (obs/SelfProfile.h) costs the
// pipeline, and what it buys: wall time per full-compaction iteration in
// three modes — recorder off, flight recorder on, recorder plus
// self-profile archiving — and the storage ratio between the produced
// .twppa archive and the equivalent Chrome-trace JSON export of the same
// execution (the ISSUE's >=10x compaction claim).
//
//   selfprof_overhead [--iters N] [--archive PATH] [--metrics-out FILE]
//
// With --metrics-out, each mode is one labelled telemetry checkpoint, so
// the committed BENCH_metrics.json carries the selfprof.* counters the
// twpp metrics-diff CI leg gates.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "obs/PhaseSpan.h"
#include "obs/SelfProfile.h"

using namespace twpp;
using namespace twpp::bench;

namespace {

/// One full-compaction iteration over a prebuilt trace; the stages'
/// PhaseSpans are the workload the self-profiler records.
void runPipeline(const RawTrace &Trace) {
  obs::PhaseSpan Span("selfprof_overhead");
  PartitionedWpp Partitioned = partitionWpp(Trace);
  DbbWpp Dbb = applyDbbCompaction(Partitioned);
  TwppWpp Twpp = convertToTwpp(Dbb);
  (void)Twpp;
}

/// Milliseconds per iteration; \p Profiler, when given, drains after
/// each one.
double timeIterations(const RawTrace &Trace, unsigned Iters,
                      obs::SelfProfiler *Profiler = nullptr) {
  Stopwatch Watch;
  for (unsigned I = 0; I != Iters; ++I) {
    runPipeline(Trace);
    if (Profiler)
      Profiler->drain();
  }
  return Watch.elapsedUs() / 1000.0 / Iters;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Iters = 5;
  std::string ArchivePath = "selfprof_overhead.twppa";
  BenchTelemetry Telemetry(
      Argc, Argv, "selfprof_overhead",
      {cli::unsignedFlag("iters", "N", "pipeline runs per mode", Iters, 1),
       cli::stringFlag("archive", "PATH",
                       "the third mode's self-profile archive", ArchivePath)});

  // One mid-size paper workload, traced once; every mode compacts the
  // same events.
  WorkloadProfile Profile = paperProfiles()[1];
  std::fprintf(stderr, "[bench] building %s...\n", Profile.Name.c_str());
  SyntheticProgram Program = generateProgram(Profile);
  CollectingSink Sink(Profile.FunctionCount);
  runSyntheticProgram(Program, Sink);
  RawTrace Trace = Sink.take();

  // Mode 1: recorder off — the baseline the others are judged against.
  bool TracingBefore = obs::tracingEnabled();
  obs::setTracingEnabled(false);
  runPipeline(Trace); // warm-up
  double BaselineMs = timeIterations(Trace, Iters);
  Telemetry.checkpoint("baseline");

  // Mode 2: flight recorder on, nothing consumes it.
  obs::setTracingEnabled(true);
  double TracedMs = timeIterations(Trace, Iters);
  Telemetry.checkpoint("traced");
  obs::setTracingEnabled(TracingBefore);

  // Mode 3: recorder plus self-profiling — incremental drains during the
  // run, archive + sidecar written (and the Chrome-JSON equivalent
  // measured) at finish.
  obs::SelfProfiler Profiler({ArchivePath, /*CompareTraceJson=*/true});
  double SelfProfMs = timeIterations(Trace, Iters, &Profiler);
  obs::SelfProfileStats Stats;
  std::string Error;
  if (!Profiler.finish(Stats, &Error)) {
    std::fprintf(stderr, "[bench] self-profile failed: %s\n", Error.c_str());
    return 1;
  }
  Telemetry.checkpoint("selfprof");

  auto Overhead = [&](double Ms) {
    return formatDouble((Ms / BaselineMs - 1.0) * 100.0, 1) + "%";
  };
  TablePrinter Table("Self-profiling overhead (full pipeline, " +
                     Profile.Name + ", " + std::to_string(Iters) +
                     " iters)");
  Table.addRow({"Mode", "ms/iter", "overhead"});
  Table.addRow({"recorder off", formatDouble(BaselineMs, 2), "-"});
  Table.addRow({"recorder on", formatDouble(TracedMs, 2),
                Overhead(TracedMs)});
  Table.addRow({"recorder + self-profile", formatDouble(SelfProfMs, 2),
                Overhead(SelfProfMs)});
  Table.print();

  double Ratio = Stats.ArchiveBytes == 0
                     ? 0.0
                     : static_cast<double>(Stats.TraceJsonBytes) /
                           static_cast<double>(Stats.ArchiveBytes);
  TablePrinter Sizes("Self-profile storage: TWPP archive vs Chrome-trace "
                     "JSON of the same execution");
  Sizes.addRow({"Representation", "bytes", "ratio"});
  Sizes.addRow({"chrome-trace json",
                std::to_string(Stats.TraceJsonBytes), "1.0x"});
  Sizes.addRow({"twpp archive", std::to_string(Stats.ArchiveBytes),
                formatFactor(Ratio)});
  Sizes.print();
  std::fprintf(stderr,
               "[bench] selfprof: %llu spans, %llu events, %llu functions, "
               "%llu records dropped, archive %s\n",
               (unsigned long long)Stats.Spans,
               (unsigned long long)Stats.Events,
               (unsigned long long)Stats.Functions,
               (unsigned long long)Stats.RecordsDropped, ArchivePath.c_str());
  return Telemetry.finish(0);
}
