//===- bench/ingest_throughput.cpp - Multi-producer ingestion rate --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Measures the ingestion frontend end to end: N in-process replay
// producers streaming twpp-wire-v1 frames over loopback sockets into one
// IngestServer (framed decode, per-producer sequencing, streaming
// compaction on each connection's reader), reported as aggregate
// events/second. Three configurations bound the design space:
//
//   p1          one producer, pure pipeline rate
//   p4          four producers, the CI contract configuration
//   p4-journal  four producers + checkpoint journaling (fsync cost)
//
// Every configuration must end lossless — a throughput number measured
// while dropping events would be a lie, so loss is a bench failure.
//
//   ingest_throughput [--min-events-per-sec N] [--metrics-out PATH]
//
// --min-events-per-sec N makes the p4 aggregate rate a hard floor (CI
// runs with N=1000000): below it the bench exits 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ingest/Ingest.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::bench;
using namespace twpp::ingest;

namespace {

/// The replay streams: test-scale workload profiles, reseeded per
/// producer exactly like `twpp ingest replay` so numbers line up with
/// the CLI.
std::vector<RawTrace> producerTraces(size_t Producers) {
  std::vector<WorkloadProfile> Profiles = testProfiles();
  std::vector<RawTrace> Traces;
  for (size_t I = 0; I < Producers; ++I) {
    WorkloadProfile Profile = Profiles[I % Profiles.size()];
    Profile.Seed += I;
    Traces.push_back(generateWorkloadTrace(Profile));
  }
  return Traces;
}

struct RunResult {
  double EventsPerSec = 0;
  uint64_t Events = 0;
  double ElapsedMs = 0;
  bool Lossless = false;
};

RunResult runConfig(const std::vector<RawTrace> &Traces, bool Journal,
                    const std::string &Label) {
  IngestConfig Config;
  if (Journal) {
    Config.JournalPrefix =
        std::string("/tmp/twpp_ingest_bench_") + Label;
    Config.CheckpointIntervalFrames = 64;
  }
  // Best of three: loopback socket scheduling is noisy on shared runners.
  RunResult Best;
  for (int Rep = 0; Rep < 3; ++Rep) {
    IngestReport Report = runLoopbackIngest(Config, Traces);
    RunResult Result;
    Result.Events = Report.EventsApplied;
    Result.ElapsedMs = Report.ElapsedUs / 1000.0;
    Result.EventsPerSec =
        Report.ElapsedUs > 0 ? Report.EventsApplied * 1e6 / Report.ElapsedUs
                             : 0;
    Result.Lossless = Report.clean();
    if (Rep == 0 || Result.EventsPerSec > Best.EventsPerSec) {
      Best = Result;
      // The metrics export keeps the best rep's counters, matching the
      // table row.
      obs::metrics().reset();
      obs::names::registerCanonicalMetrics(obs::metrics());
      publishIngestMetrics(Report);
    }
    if (!Result.Lossless)
      break; // no point timing a lossy pipeline
  }
  return Best;
}

std::string formatRate(double EventsPerSec) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2fM/s", EventsPerSec / 1e6);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  double MinEventsPerSec = 0;
  BenchTelemetry Telemetry(
      Argc, Argv, "ingest_throughput",
      {cli::decimalFlag("min-events-per-sec", "N",
                        "exit 1 when the p4 aggregate rate is below N",
                        MinEventsPerSec)});
  TablePrinter Table("Ingestion throughput: wire decode + sequencing + "
                     "streaming compaction (loopback)");
  Table.addRow({"Config", "Producers", "Events", "Elapsed (ms)",
                "Aggregate rate", "Lossless"});

  struct ConfigSpec {
    const char *Label;
    size_t Producers;
    bool Journal;
  };
  const ConfigSpec Configs[] = {
      {"p1", 1, false},
      {"p4", 4, false},
      {"p4-journal", 4, true},
  };

  bool AnyLoss = false;
  double P4Rate = 0;
  for (const ConfigSpec &Spec : Configs) {
    std::fprintf(stderr, "[bench] running %s...\n", Spec.Label);
    std::vector<RawTrace> Traces = producerTraces(Spec.Producers);
    RunResult Result = runConfig(Traces, Spec.Journal, Spec.Label);
    if (!Result.Lossless) {
      std::fprintf(stderr, "ingest_throughput: %s lost events\n",
                   Spec.Label);
      AnyLoss = true;
    }
    if (std::strcmp(Spec.Label, "p4") == 0)
      P4Rate = Result.EventsPerSec;
    Table.addRow({Spec.Label, std::to_string(Spec.Producers),
                  std::to_string(Result.Events),
                  formatDouble(Result.ElapsedMs, 1),
                  formatRate(Result.EventsPerSec),
                  Result.Lossless ? "yes" : "NO"});
    Telemetry.checkpoint(Spec.Label);
  }

  Table.print();

  if (MinEventsPerSec > 0 && P4Rate < MinEventsPerSec) {
    std::fprintf(stderr,
                 "ingest_throughput: p4 aggregate %.0f events/sec is below "
                 "the %.0f floor\n",
                 P4Rate, MinEventsPerSec);
    return 1;
  }
  return Telemetry.finish(AnyLoss ? 1 : 0);
}
