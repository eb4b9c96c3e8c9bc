//===- tools/twpp_ingest.cpp - Multi-producer ingestion CLI ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Front door of the ingestion frontend (src/ingest/): accepts
// twpp-wire-v1 trace streams from N producers and writes one
// verifier-clean archive per producer. Three modes:
//
//   twpp_ingest replay --producers=4 --out=run                (loopback)
//   twpp_ingest serve --socket=/tmp/twpp.sock --producers=4 --out=run
//   twpp_ingest produce --socket=/tmp/twpp.sock --producer-id=2
//
// `replay` spins the producers up in-process over socketpairs — the
// one-command form the throughput bench and the chaos sweep build on.
// `serve` + `produce` split the same exchange across processes so a
// producer can be SIGKILL'd, stalled or disconnected for real.
//
// Robustness contract (CI asserts it): exit 0 means every producer was
// lossless and the archives are byte-identical to an in-process
// compaction of the same traces; exit 1 means ingestion completed but
// something was lost or degraded — and the report says exactly what;
// exit 2 means usage error or fatal setup failure. Wire damage, producer
// crashes, queue overflow and memory pressure all land in the 0/1 arms,
// never in a crash or a hang.
//
//   --out=PREFIX           write <PREFIX>.p<ID>.twppa per producer
//   --journal=PREFIX       checkpoint journals <PREFIX>.p<ID>.twppj
//   --resume               resume each producer from its journal
//   --crash-after-checkpoints=N  raise(SIGKILL) after the Nth checkpoint
//                          (durability drills; pair with --resume rerun)
//   --checkpoint-interval=N  frames between checkpoints (default 64)
//   --memory-budget=BYTES  per-producer degradable-state budget
//   --queue-capacity=N     bounded queue size in frames (default 1024)
//   --policy=block|shed    backpressure policy (default block)
//   --reorder-window=N     out-of-order frames buffered (default 16)
//   --idle-timeout-ms=N    per-connection idle cutoff (default 10000)
//   --jobs=N               compaction parallelism on drain (0..1024)
//   --scale=test|paper     workload scale for replay/produce
//   --profile=NAME         use one named workload for every producer
//   --seed=N               workload seed base (producer i adds i)
//   --batch-events=N       events per wire frame (default 4096)
//   --fault=SPEC           install a TWPP_FAULT spec programmatically
//   --format=text|json     report format (schema twpp-ingest-v1)
//   --metrics-out=FILE     write the ingest.* metrics export to FILE
//
//===----------------------------------------------------------------------===//

#include "ingest/Ingest.h"
#include "ingest/Producer.h"
#include "obs/Export.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/CliCommon.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "workloads/Workload.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace twpp;
using namespace twpp::ingest;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_ingest MODE [options]\n"
      "modes:\n"
      "  replay    in-process producers over loopback sockets\n"
      "  serve     accept producers on a unix socket (--socket, "
      "--producers)\n"
      "  produce   one replay producer connecting to a server (--socket, "
      "--producer-id)\n"
      "options:\n"
      "  --out=PREFIX --journal=PREFIX --resume\n"
      "  --crash-after-checkpoints=N --checkpoint-interval=N\n"
      "  --memory-budget=BYTES --queue-capacity=N --policy=block|shed\n"
      "  --reorder-window=N --idle-timeout-ms=N --jobs=N\n"
      "  --scale=test|paper --profile=NAME --seed=N --batch-events=N\n"
      "  --fault=SPEC --format=text|json --metrics-out=FILE\n"
      "exit codes: 0 lossless, 1 completed with accounted loss/degradation,"
      "\n2 usage or fatal error\n");
  return cli::ExitUsage;
}

bool parseU64(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

struct ToolOptions {
  std::string Mode;
  IngestConfig Config;
  std::string Format = "text";
  std::string MetricsOut;
  std::string SocketPath;
  std::string ProfileName;
  std::string Scale = "test";
  uint64_t Producers = 4;
  uint64_t ProducerId = 0;
  uint64_t SeedBase = 0;
  uint64_t BatchEvents = 4096;
  uint64_t CrashAfterCheckpoints = 0;
};

/// Builds the deterministic replay trace of producer \p Index: the
/// selected workload profile reseeded per producer so streams differ but
/// reruns (and the golden in-process compaction CI diffs against) agree
/// byte for byte.
RawTrace producerTrace(const ToolOptions &Options, uint64_t Index) {
  std::vector<WorkloadProfile> Profiles = Options.Scale == "paper"
                                              ? paperProfiles()
                                              : testProfiles();
  WorkloadProfile Profile;
  if (!Options.ProfileName.empty()) {
    bool Found = false;
    for (const WorkloadProfile &Candidate : Profiles)
      if (Candidate.Name == Options.ProfileName) {
        Profile = Candidate;
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr, "twpp_ingest: unknown profile '%s'\n",
                   Options.ProfileName.c_str());
      std::exit(cli::ExitUsage);
    }
  } else {
    Profile = Profiles[static_cast<size_t>(Index) % Profiles.size()];
  }
  Profile.Seed += Options.SeedBase + Index;
  return generateWorkloadTrace(Profile);
}

std::string renderReportText(const IngestReport &Report) {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "ingest: %zu producer(s), %llu frames, %llu events, "
                "%.1f ms%s\n",
                Report.Producers.size(),
                static_cast<unsigned long long>(Report.Frames),
                static_cast<unsigned long long>(Report.EventsApplied),
                Report.ElapsedUs / 1000.0,
                Report.clean() ? "" : " [LOSSY]");
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "  wire: %llu corrupt, %llu resync bytes, %llu retries, "
                "%llu idle timeouts, queue peak %llu, %llu waits\n",
                static_cast<unsigned long long>(Report.CorruptFrames),
                static_cast<unsigned long long>(Report.ResyncBytes),
                static_cast<unsigned long long>(Report.ReadRetries),
                static_cast<unsigned long long>(Report.IdleTimeouts),
                static_cast<unsigned long long>(Report.QueueDepthPeak),
                static_cast<unsigned long long>(Report.BackpressureWaits));
  Out += Line;
  for (const ProducerReport &P : Report.Producers) {
    std::snprintf(
        Line, sizeof(Line),
        "  p%u: %llu/%llu events, %llu dropped, %llu lost, %llu gaps, "
        "%llu dup, %llu reordered, %llu shed, %llu synth exits%s%s%s%s\n",
        P.ProducerId, static_cast<unsigned long long>(P.EventsApplied),
        static_cast<unsigned long long>(P.EventsDeclared),
        static_cast<unsigned long long>(P.EventsDropped),
        static_cast<unsigned long long>(P.eventsLost()),
        static_cast<unsigned long long>(P.SeqGaps),
        static_cast<unsigned long long>(P.FramesDuplicate),
        static_cast<unsigned long long>(P.FramesReordered),
        static_cast<unsigned long long>(P.ShedFrames),
        static_cast<unsigned long long>(P.SynthesizedExits),
        P.Resumed ? ", resumed" : "", P.Disconnected ? ", DISCONNECTED" : "",
        P.lossless() ? "" : " [lossy]",
        P.ArchiveError.ok() ? "" : " [archive write failed]");
    Out += Line;
    if (!P.ArchivePath.empty() && P.ArchiveError.ok())
      Out += "      -> " + P.ArchivePath + "\n";
  }
  return Out;
}

std::string u64(uint64_t V) { return std::to_string(V); }

std::string renderReportJson(const IngestReport &Report) {
  std::string Out = "{\"schema\": \"twpp-ingest-v1\", \"clean\": ";
  Out += Report.clean() ? "true" : "false";
  Out += ", \"aborted\": ";
  Out += Report.Aborted ? "true" : "false";
  Out += ", \"frames\": " + u64(Report.Frames);
  Out += ", \"frame_bytes\": " + u64(Report.FrameBytes);
  Out += ", \"events\": " + u64(Report.EventsApplied);
  Out += ", \"corrupt_frames\": " + u64(Report.CorruptFrames);
  Out += ", \"resync_bytes\": " + u64(Report.ResyncBytes);
  Out += ", \"read_retries\": " + u64(Report.ReadRetries);
  Out += ", \"idle_timeouts\": " + u64(Report.IdleTimeouts);
  Out += ", \"backpressure_waits\": " + u64(Report.BackpressureWaits);
  Out += ", \"queue_depth_peak\": " + u64(Report.QueueDepthPeak);
  Out += ", \"elapsed_us\": " + std::to_string(Report.ElapsedUs);
  if (!Report.FatalError.empty())
    Out += ", \"fatal\": " + obs::jsonStringLiteral(Report.FatalError);
  Out += ", \"producers\": [";
  bool First = true;
  for (const ProducerReport &P : Report.Producers) {
    Out += First ? "" : ", ";
    First = false;
    Out += "{\"id\": " + u64(P.ProducerId);
    Out += ", \"lossless\": ";
    Out += P.lossless() ? "true" : "false";
    Out += ", \"function_count\": " + u64(P.FunctionCount);
    Out += ", \"saw_hello\": ";
    Out += P.SawHello ? "true" : "false";
    Out += ", \"saw_bye\": ";
    Out += P.SawBye ? "true" : "false";
    Out += ", \"resumed\": ";
    Out += P.Resumed ? "true" : "false";
    Out += ", \"disconnected\": ";
    Out += P.Disconnected ? "true" : "false";
    Out += ", \"frames_applied\": " + u64(P.FramesApplied);
    Out += ", \"events_applied\": " + u64(P.EventsApplied);
    Out += ", \"events_declared\": " + u64(P.EventsDeclared);
    Out += ", \"events_dropped\": " + u64(P.EventsDropped);
    Out += ", \"events_lost\": " + u64(P.eventsLost());
    Out += ", \"frames_invalid\": " + u64(P.FramesInvalid);
    Out += ", \"frames_duplicate\": " + u64(P.FramesDuplicate);
    Out += ", \"frames_reordered\": " + u64(P.FramesReordered);
    Out += ", \"frames_replayed\": " + u64(P.FramesReplayed);
    Out += ", \"seq_gaps\": " + u64(P.SeqGaps);
    Out += ", \"shed_frames\": " + u64(P.ShedFrames);
    Out += ", \"shed_bytes\": " + u64(P.ShedBytes);
    Out += ", \"synthesized_exits\": " + u64(P.SynthesizedExits);
    Out += ", \"degraded_frames\": " + u64(P.DegradedFrames);
    Out += ", \"checkpoints\": " + u64(P.CheckpointsWritten);
    Out += ", \"checkpoint_failures\": " + u64(P.CheckpointFailures);
    if (!P.ArchivePath.empty())
      Out += ", \"archive\": " + obs::jsonStringLiteral(P.ArchivePath);
    if (!P.ArchiveError.ok())
      Out += ", \"archive_error\": " +
             obs::jsonStringLiteral(P.ArchiveError.message());
    Out += "}";
  }
  Out += "]}\n";
  return Out;
}

int finishRun(const ToolOptions &Options, const IngestReport &Report) {
  if (!Report.FatalError.empty()) {
    std::fprintf(stderr, "twpp_ingest: %s\n", Report.FatalError.c_str());
    return cli::ExitUsage;
  }
  if (!Options.MetricsOut.empty()) {
    obs::names::registerCanonicalMetrics(obs::metrics());
    publishIngestMetrics(Report);
    if (!obs::writeMetricsJsonFile(Options.MetricsOut, obs::metrics())) {
      std::fprintf(stderr, "twpp_ingest: cannot write %s\n",
                   Options.MetricsOut.c_str());
      return cli::ExitUsage;
    }
  }
  std::string Rendered = Options.Format == "json"
                             ? renderReportJson(Report)
                             : renderReportText(Report);
  std::fputs(Rendered.c_str(), stdout);
  return Report.clean() ? cli::ExitSuccess : cli::ExitFindings;
}

int runReplay(const ToolOptions &Options) {
  std::vector<RawTrace> Traces;
  for (uint64_t I = 0; I < Options.Producers; ++I)
    Traces.push_back(producerTrace(Options, I));

  IngestServer Server(Options.Config);
  if (Options.CrashAfterCheckpoints != 0)
    Server.setCrashAfterCheckpoints(Options.CrashAfterCheckpoints,
                                    [] { raise(SIGKILL); });

  std::vector<std::thread> Threads;
  std::vector<int> Fds;
  for (size_t I = 0; I < Traces.size(); ++I) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
      std::fprintf(stderr, "twpp_ingest: socketpair: %s\n",
                   std::strerror(errno));
      return cli::ExitUsage;
    }
    Server.addConnection(Sv[0]);
    Fds.push_back(Sv[1]);
  }
  for (size_t I = 0; I < Traces.size(); ++I) {
    ProducerOptions PO;
    PO.ProducerId = static_cast<uint32_t>(I);
    PO.BatchEvents = static_cast<size_t>(Options.BatchEvents);
    int Fd = Fds[I];
    const RawTrace *Trace = &Traces[I];
    Threads.emplace_back([Fd, Trace, PO] {
      sendTraceOverFd(Fd, *Trace, PO);
      ::close(Fd);
    });
  }
  IngestReport Report = Server.run();
  for (std::thread &T : Threads)
    T.join();
  return finishRun(Options, Report);
}

int runServe(const ToolOptions &Options) {
  if (Options.SocketPath.empty())
    return usage();
  IngestServer Server(Options.Config);
  if (Options.CrashAfterCheckpoints != 0)
    Server.setCrashAfterCheckpoints(Options.CrashAfterCheckpoints,
                                    [] { raise(SIGKILL); });
  std::string Error;
  if (!Server.listenUnixSocket(Options.SocketPath,
                               static_cast<size_t>(Options.Producers),
                               &Error)) {
    std::fprintf(stderr, "twpp_ingest: %s\n", Error.c_str());
    return cli::ExitUsage;
  }
  return finishRun(Options, Server.run());
}

int runProduce(const ToolOptions &Options) {
  if (Options.SocketPath.empty())
    return usage();
  std::string Error;
  int Fd = connectUnixSocket(Options.SocketPath, &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "twpp_ingest: %s\n", Error.c_str());
    return cli::ExitUsage;
  }
  RawTrace Trace = producerTrace(Options, Options.ProducerId);
  ProducerOptions PO;
  PO.ProducerId = static_cast<uint32_t>(Options.ProducerId);
  PO.BatchEvents = static_cast<size_t>(Options.BatchEvents);
  ProducerWireStats Stats;
  bool Ok = sendTraceOverFd(Fd, Trace, PO, &Stats);
#if !defined(_WIN32)
  ::close(Fd);
#endif
  if (!Ok) {
    std::fprintf(stderr, "twpp_ingest: producer %llu: send failed "
                         "(receiver gone)\n",
                 static_cast<unsigned long long>(Options.ProducerId));
    return cli::ExitFindings;
  }
  std::printf("producer %llu: %llu frames, %llu bytes, %llu events\n",
              static_cast<unsigned long long>(Options.ProducerId),
              static_cast<unsigned long long>(Stats.FramesSent),
              static_cast<unsigned long long>(Stats.BytesSent),
              static_cast<unsigned long long>(Trace.Events.size()));
  return cli::ExitSuccess;
}

} // namespace

int main(int Argc, char **Argv) {
#if !defined(_WIN32)
  // A producer vanishing mid-frame must surface as EPIPE on the write,
  // not kill the server (degrade-never-abort starts here).
  std::signal(SIGPIPE, SIG_IGN);
#endif

  ToolOptions Options;
  if (Argc < 2)
    return usage();
  Options.Mode = Argv[1];
  if (Options.Mode != "replay" && Options.Mode != "serve" &&
      Options.Mode != "produce")
    return usage();

  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    switch (cli::parseFormatFlag(Arg, Options.Format)) {
    case cli::FlagParse::Ok:
      continue;
    case cli::FlagParse::Bad:
      return usage();
    case cli::FlagParse::NoMatch:
      break;
    }
    std::string Value;
    uint64_t Number = 0;
    if (cli::flagValue(Arg, "out", Value)) {
      Options.Config.OutPrefix = Value;
    } else if (cli::flagValue(Arg, "journal", Value)) {
      Options.Config.JournalPrefix = Value;
    } else if (Arg == "--resume") {
      Options.Config.Resume = true;
    } else if (cli::flagValue(Arg, "crash-after-checkpoints", Value)) {
      if (!parseU64(Value, Options.CrashAfterCheckpoints))
        return usage();
    } else if (cli::flagValue(Arg, "checkpoint-interval", Value)) {
      if (!parseU64(Value, Options.Config.CheckpointIntervalFrames))
        return usage();
    } else if (cli::flagValue(Arg, "memory-budget", Value)) {
      if (!parseU64(Value, Options.Config.MemoryBudgetBytes))
        return usage();
    } else if (cli::flagValue(Arg, "queue-capacity", Value)) {
      if (!parseU64(Value, Number) || Number == 0)
        return usage();
      Options.Config.QueueCapacity = static_cast<size_t>(Number);
    } else if (cli::flagValue(Arg, "policy", Value)) {
      if (!parseBackpressurePolicy(Value, Options.Config.Policy))
        return usage();
    } else if (cli::flagValue(Arg, "reorder-window", Value)) {
      if (!parseU64(Value, Number) || Number == 0)
        return usage();
      Options.Config.ReorderWindow = static_cast<size_t>(Number);
    } else if (cli::flagValue(Arg, "idle-timeout-ms", Value)) {
      if (!parseU64(Value, Number) || Number == 0)
        return usage();
      Options.Config.IdleTimeoutMs = static_cast<unsigned>(Number);
    } else if (cli::flagValue(Arg, "jobs", Value)) {
      if (!cli::parseJobs(Value, Options.Config.Parallel.Jobs))
        return usage();
    } else if (cli::flagValue(Arg, "scale", Value)) {
      if (Value != "test" && Value != "paper")
        return usage();
      Options.Scale = Value;
    } else if (cli::flagValue(Arg, "profile", Value)) {
      Options.ProfileName = Value;
    } else if (cli::flagValue(Arg, "seed", Value)) {
      if (!parseU64(Value, Options.SeedBase))
        return usage();
    } else if (cli::flagValue(Arg, "batch-events", Value)) {
      if (!parseU64(Value, Options.BatchEvents) ||
          Options.BatchEvents == 0)
        return usage();
    } else if (cli::flagValue(Arg, "producers", Value)) {
      if (!parseU64(Value, Options.Producers) || Options.Producers == 0)
        return usage();
    } else if (cli::flagValue(Arg, "producer-id", Value)) {
      if (!parseU64(Value, Options.ProducerId))
        return usage();
    } else if (cli::flagValue(Arg, "socket", Value)) {
      Options.SocketPath = Value;
    } else if (cli::flagValue(Arg, "metrics-out", Value)) {
      Options.MetricsOut = Value;
    } else if (cli::flagValue(Arg, "fault", Value)) {
      std::string Error;
      if (!fault::setFaultSpec(Value, &Error)) {
        std::fprintf(stderr, "twpp_ingest: bad --fault spec: %s\n",
                     Error.c_str());
        return usage();
      }
    } else {
      return usage();
    }
  }

  if (Options.Mode == "replay")
    return runReplay(Options);
  if (Options.Mode == "serve")
    return runServe(Options);
  return runProduce(Options);
}
