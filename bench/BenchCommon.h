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

#include "obs/TelemetrySession.h"
#include "support/CliCommon.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "workloads/Workload.h"
#include "wpp/Sizes.h"
#include "wpp/Twpp.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace twpp::bench {

/// The command line and telemetry of a table/figure binary: the bench's
/// own flags plus the sink flags of obs::TelemetrySession. A bad flag or
/// a stray argument prints the usage and exits with cli::ExitUsage.
///
/// The session is labelled with the bench name, so `--metrics-out` gets
/// one JSON-lines block per checkpoint(), labelled "<bench>/<stage>", and
/// per-profile metric values line up with the table rows the bench
/// prints; with no checkpoints it gets one block for the whole run.
/// Checkpoints also drop an instant event into the trace, so the
/// timeline shows where each profile's work starts.
class BenchTelemetry : public obs::TelemetrySession {
public:
  BenchTelemetry(int Argc, char **Argv, std::string Bench,
                 cli::FlagTable Own = {})
      : TelemetrySession(std::move(Bench)) {
    if (!parseCommandLine(Argc, Argv, std::move(Own)))
      std::exit(cli::ExitUsage);
    start();
  }
};

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

inline ProfileData buildProfileData(const WorkloadProfile &Profile) {
  ProfileData Data;
  Data.Profile = Profile;
  Data.Program = generateProgram(Profile);
  CollectingSink Sink(Profile.FunctionCount);
  runSyntheticProgram(Data.Program, Sink);
  Data.Trace = Sink.take();
  Stopwatch Compaction;
  Data.Partitioned = partitionWpp(Data.Trace);
  Data.Dbb = applyDbbCompaction(Data.Partitioned);
  Data.Twpp = convertToTwpp(Data.Dbb);
  Data.CompactionMs = Compaction.elapsedUs() / 1000.0;
  Data.Owpp = measureOwpp(Data.Partitioned);
  Data.Stages = measureStages(Data.Partitioned, Data.Dbb, Data.Twpp);
  return Data;
}

/// Builds all five paper profiles, printing progress to stderr. With a
/// telemetry collector, each profile becomes one labelled checkpoint so
/// its metrics can be compared against that profile's table row.
inline std::vector<ProfileData>
buildAllProfiles(BenchTelemetry *Telemetry = nullptr) {
  std::vector<ProfileData> All;
  for (const WorkloadProfile &Profile : paperProfiles()) {
    std::fprintf(stderr, "[bench] building %s...\n", Profile.Name.c_str());
    All.push_back(buildProfileData(Profile));
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
