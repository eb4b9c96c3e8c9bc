//===- bench/BenchCommon.h - Shared experiment plumbing ---------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table/figure reproduction binaries: each bench
/// builds the five paper workloads, runs the full compaction pipeline once
/// and prints its table through TablePrinter so outputs are uniform.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_BENCH_BENCHCOMMON_H
#define TWPP_BENCH_BENCHCOMMON_H

#include "obs/Export.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/SelfProfile.h"
#include "obs/Trace.h"
#include "support/CliCommon.h"
#include "support/Parallel.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "workloads/Workload.h"
#include "wpp/Sizes.h"
#include "wpp/Twpp.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace twpp::bench {

/// Opt-in telemetry for the table/figure binaries. Metric collection is
/// activated by `--metrics-out <path>` on the command line or the
/// TWPP_METRICS_OUT environment variable; event tracing by `--trace-out
/// <path>` or TWPP_TRACE_OUT; self-profiling (the bench's own execution
/// compacted into a TWPP archive, obs/SelfProfile.h) by the
/// TWPP_SELF_PROFILE environment variable. Inert (and free) otherwise.
///
/// Each checkpoint() emits one JSON-lines block labelled
/// "<bench>/<label>" and resets the registry, so per-profile metric
/// values line up with the table rows the bench prints. With no
/// checkpoints the destructor dumps a single block for the whole run.
/// Checkpoints also drop an instant event into the trace, so the
/// timeline shows where each profile's work starts.
class BenchTelemetry {
public:
  BenchTelemetry(int Argc, char **Argv, std::string BenchName)
      : Bench(std::move(BenchName)) {
    for (int I = 1; I + 1 < Argc; ++I) {
      if (std::strcmp(Argv[I], "--metrics-out") == 0)
        OutPath = Argv[I + 1];
      else if (std::strcmp(Argv[I], "--trace-out") == 0)
        TracePath = Argv[I + 1];
    }
    if (OutPath.empty())
      if (const char *Env = std::getenv("TWPP_METRICS_OUT"))
        OutPath = Env;
    if (TracePath.empty())
      if (const char *Env = std::getenv("TWPP_TRACE_OUT"))
        TracePath = Env;
    if (!TracePath.empty()) {
      obs::setTracingEnabled(true);
      obs::setCurrentThreadName("main");
    }
    if (obs::maybeEnableSelfProfileFromEnv())
      obs::setCurrentThreadName("main");
    if (active()) {
      // Memory telemetry rides along with either sink: the tracker feeds
      // the per-stage mem.tracked_* figures and the poller samples RSS
      // between checkpoints (and emits counter tracks into the trace).
      obs::setMemTrackingEnabled(true);
      obs::memTracker().reset();
      obs::startMemPoller();
    }
    if (OutPath.empty())
      return;
    obs::setMetricsEnabled(true);
    obs::names::registerCanonicalMetrics(obs::metrics());
    obs::metrics().reset();
  }

  ~BenchTelemetry() {
    // Finish any env-driven self-profile first (no-op if the bench
    // already finished it) so its selfprof.* metrics can land in the
    // final export below.
    std::string SelfError;
    if (obs::selfProfiler() && !obs::finishSelfProfile(nullptr, &SelfError))
      std::fprintf(stderr, "[bench] cannot write self-profile: %s\n",
                   SelfError.c_str());
    if (active())
      obs::stopMemPoller();
    if (!TracePath.empty()) {
      if (obs::writeTraceJsonFile(TracePath, obs::traceRecorder()))
        std::fprintf(stderr, "[bench] wrote trace to %s\n",
                     TracePath.c_str());
      else
        std::fprintf(stderr, "[bench] cannot write trace to %s\n",
                     TracePath.c_str());
    }
    if (OutPath.empty())
      return;
    if (Lines.empty()) {
      obs::publishMemMetrics(obs::metrics());
      Lines = obs::exportMetricsJsonLines(obs::metrics(), Bench);
    }
    if (std::FILE *F = std::fopen(OutPath.c_str(), "w")) {
      std::fwrite(Lines.data(), 1, Lines.size(), F);
      std::fclose(F);
      std::fprintf(stderr, "[bench] wrote metrics to %s\n", OutPath.c_str());
    } else {
      std::fprintf(stderr, "[bench] cannot write metrics to %s\n",
                   OutPath.c_str());
    }
  }

  BenchTelemetry(const BenchTelemetry &) = delete;
  BenchTelemetry &operator=(const BenchTelemetry &) = delete;

  bool active() const { return !OutPath.empty() || !TracePath.empty(); }

  /// Flushes everything collected since the previous checkpoint under
  /// the label "<bench>/<label>" and zeroes the registry. The memory
  /// gauges (mem.peak_bytes, mem.tracked_peak_bytes, ...) are published
  /// just before the flush and both the poller's RSS window and the
  /// allocation tracker are reset, so each labelled block carries that
  /// stage's own peaks rather than a run-wide high-water mark.
  void checkpoint(const std::string &Label) {
    obs::traceInstant(Label);
    // Keep the self-profiler's buffers ahead of ring wraparound; cheap
    // (one cursor sweep) and inert when self-profiling is off.
    if (obs::SelfProfiler *P = obs::selfProfiler())
      P->drain();
    if (OutPath.empty())
      return;
    obs::publishMemMetrics(obs::metrics());
    obs::memTracker().reset();
    Lines += obs::exportMetricsJsonLines(obs::metrics(), Bench + "/" + Label);
    obs::metrics().reset();
  }

private:
  std::string Bench;
  std::string OutPath;
  std::string TracePath;
  std::string Lines;
};

/// Parses the `--jobs N` flag shared by the bench binaries (0 = one
/// worker per hardware thread; absent = serial, matching the paper runs).
/// A missing or malformed value exits with the usage code.
inline ParallelConfig parseParallelConfig(int Argc, char **Argv) {
  ParallelConfig Config;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--jobs") == 0 &&
        (I + 1 == Argc ||
         !cli::parseUnsigned(Argv[++I], Config.Jobs, 0, cli::MaxJobs))) {
      std::fprintf(stderr, "--jobs takes a value from 0 to %u\n",
                   cli::MaxJobs);
      std::exit(cli::ExitUsage);
    }
  return Config;
}

/// Everything a table needs about one benchmark run.
struct ProfileData {
  WorkloadProfile Profile;
  SyntheticProgram Program;
  RawTrace Trace;
  PartitionedWpp Partitioned;
  DbbWpp Dbb;
  TwppWpp Twpp;
  OwppSizes Owpp;
  StageSizes Stages;
  /// Wall time of the compaction stages (partition + DBB + TWPP).
  double CompactionMs = 0;
};

inline ProfileData buildProfileData(const WorkloadProfile &Profile,
                                    const ParallelConfig &Config = {}) {
  ProfileData Data;
  Data.Profile = Profile;
  Data.Program = generateProgram(Profile);
  CollectingSink Sink(Profile.FunctionCount);
  runSyntheticProgram(Data.Program, Sink);
  Data.Trace = Sink.take();
  Stopwatch Compaction;
  Data.Partitioned = partitionWpp(Data.Trace);
  Data.Dbb = applyDbbCompaction(Data.Partitioned, Config);
  Data.Twpp = convertToTwpp(Data.Dbb, Config);
  Data.CompactionMs = Compaction.elapsedUs() / 1000.0;
  Data.Owpp = measureOwpp(Data.Partitioned);
  Data.Stages = measureStages(Data.Partitioned, Data.Dbb, Data.Twpp);
  return Data;
}

/// Builds all five paper profiles, printing progress to stderr. With a
/// telemetry collector, each profile becomes one labelled checkpoint so
/// its metrics can be compared against that profile's table row.
inline std::vector<ProfileData>
buildAllProfiles(BenchTelemetry *Telemetry = nullptr,
                 const ParallelConfig &Config = {}) {
  std::vector<ProfileData> All;
  for (const WorkloadProfile &Profile : paperProfiles()) {
    std::fprintf(stderr, "[bench] building %s...\n", Profile.Name.c_str());
    All.push_back(buildProfileData(Profile, Config));
    if (Telemetry)
      Telemetry->checkpoint(Profile.Name);
  }
  return All;
}

/// KB with one decimal, the granularity the paper's MB columns imply.
inline std::string kb(uint64_t Bytes) {
  return formatDouble(Bytes / 1024.0, 1);
}

} // namespace twpp::bench

#endif // TWPP_BENCH_BENCHCOMMON_H
