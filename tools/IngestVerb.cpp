//===- tools/IngestVerb.cpp - Multi-producer ingestion --------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Front door of the ingestion frontend (src/ingest/): accepts
// twpp-wire-v1 trace streams from N producers and writes one
// verifier-clean archive per producer. Three modes:
//
//   twpp ingest replay --producers=4 --out=run                (loopback)
//   twpp ingest serve --socket=/tmp/twpp.sock --producers=4 --out=run
//   twpp ingest produce --socket=/tmp/twpp.sock --producer-id=2
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
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "ingest/Ingest.h"
#include "ingest/Producer.h"
#include "obs/Json.h"
#include "support/FaultInjection.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

using namespace twpp;
using namespace twpp::ingest;
using namespace twpp::tool;

namespace {

struct ToolOptions {
  IngestConfig Config;
  std::string Format = "text";
  std::string SocketPath;
  std::string ProfileName;
  std::string Scale = "test";
  std::string Fault;
  uint64_t Producers = 4;
  uint64_t ProducerId = 0;
  uint64_t SeedBase = 0;
  uint64_t BatchEvents = 4096;
} Opts;

/// Builds the deterministic replay trace of producer \p Index: the
/// selected workload profile reseeded per producer so streams differ but
/// reruns (and the golden in-process compaction CI diffs against) agree
/// byte for byte.
RawTrace producerTrace(const ToolOptions &Options, uint64_t Index) {
  std::vector<WorkloadProfile> Profiles = Options.Scale == "paper"
                                              ? paperProfiles()
                                              : testProfiles();
  WorkloadProfile Profile =
      Profiles[static_cast<size_t>(Index) % Profiles.size()];
  if (!Options.ProfileName.empty()) {
    auto It = std::find_if(Profiles.begin(), Profiles.end(),
                           [&](const WorkloadProfile &P) {
                             return P.Name == Options.ProfileName;
                           });
    if (It == Profiles.end()) {
      std::fprintf(stderr, "twpp ingest: unknown profile '%s'\n",
                   Options.ProfileName.c_str());
      std::exit(cli::ExitUsage);
    }
    Profile = *It;
  }
  Profile.Seed += Options.SeedBase + Index;
  return generateWorkloadTrace(Profile);
}

std::string renderReportText(const IngestReport &Report) {
  std::string Out;
  appendf(Out, "ingest: %zu producer(s), %llu frames, %llu events, %.1f ms%s\n",
          Report.Producers.size(),
          static_cast<unsigned long long>(Report.Frames),
          static_cast<unsigned long long>(Report.EventsApplied),
          Report.ElapsedUs / 1000.0, Report.clean() ? "" : " [LOSSY]");
  appendf(Out,
          "  wire: %llu corrupt, %llu resync bytes, %llu retries, "
          "%llu idle timeouts, queue peak %llu, %llu waits\n",
          static_cast<unsigned long long>(Report.CorruptFrames),
          static_cast<unsigned long long>(Report.ResyncBytes),
          static_cast<unsigned long long>(Report.ReadRetries),
          static_cast<unsigned long long>(Report.IdleTimeouts),
          static_cast<unsigned long long>(Report.QueueDepthPeak),
          static_cast<unsigned long long>(Report.BackpressureWaits));
  for (const ProducerReport &P : Report.Producers) {
    appendf(Out,
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
            P.Resumed ? ", resumed" : "",
            P.Disconnected ? ", DISCONNECTED" : "",
            P.lossless() ? "" : " [lossy]",
            P.ArchiveError.ok() ? "" : " [archive write failed]");
    if (!P.ArchivePath.empty() && P.ArchiveError.ok())
      Out += "      -> " + P.ArchivePath + "\n";
  }
  return Out;
}

std::string u64(uint64_t V) { return std::to_string(V); }
std::string boolean(bool B) { return B ? "true" : "false"; }

std::string renderReportJson(const IngestReport &Report) {
  std::string Out = "{\"schema\": \"twpp-ingest-v1\", \"clean\": " +
                    boolean(Report.clean());
  Out += ", \"aborted\": " + boolean(Report.Aborted);
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
  for (const ProducerReport &P : Report.Producers) {
    Out += &P == Report.Producers.data() ? "" : ", ";
    Out += "{\"id\": " + u64(P.ProducerId);
    Out += ", \"lossless\": " + boolean(P.lossless());
    Out += ", \"function_count\": " + u64(P.FunctionCount);
    Out += ", \"saw_hello\": " + boolean(P.SawHello);
    Out += ", \"saw_bye\": " + boolean(P.SawBye);
    Out += ", \"resumed\": " + boolean(P.Resumed);
    Out += ", \"disconnected\": " + boolean(P.Disconnected);
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
    std::fprintf(stderr, "twpp ingest: %s\n", Report.FatalError.c_str());
    return cli::ExitUsage;
  }
  publishIngestMetrics(Report);
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
  ProducerOptions PO;
  PO.BatchEvents = static_cast<size_t>(Options.BatchEvents);
  return finishRun(Options, runLoopbackIngest(Options.Config, Traces, PO));
}

int runServe(const ToolOptions &Options) {
  IngestServer Server(Options.Config);
  std::string Error;
  if (!Server.listenUnixSocket(Options.SocketPath,
                               static_cast<size_t>(Options.Producers),
                               &Error)) {
    std::fprintf(stderr, "twpp ingest: %s\n", Error.c_str());
    return cli::ExitUsage;
  }
  return finishRun(Options, Server.run());
}

int runProduce(const ToolOptions &Options) {
  std::string Error;
  int Fd = connectUnixSocket(Options.SocketPath, &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "twpp ingest: %s\n", Error.c_str());
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
    std::fprintf(stderr, "twpp ingest: producer %llu: send failed "
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

cli::FlagTable tool::ingestFlags() {
  IngestConfig &C = Opts.Config;
  return {
      cli::stringFlag("out", "PREFIX", "archives <PREFIX>.p<ID>.twppa",
                      C.OutPrefix),
      cli::stringFlag("journal", "PREFIX", "journals <PREFIX>.p<ID>.twppj",
                      C.JournalPrefix),
      cli::switchFlag("resume", "resume each producer from its journal",
                      C.Resume),
      cli::unsignedFlag("crash-after-checkpoints", "N",
                        "raise(SIGKILL) after the Nth checkpoint",
                        C.CrashAfterCheckpoints),
      cli::unsignedFlag("checkpoint-interval", "N",
                        "frames between checkpoints (default 64)",
                        C.CheckpointIntervalFrames),
      cli::unsignedFlag("memory-budget", "BYTES",
                        "per-producer degradable-state budget",
                        C.MemoryBudgetBytes),
      cli::unsignedFlag("queue-capacity", "N", "queued frames (default 1024)",
                        C.QueueCapacity, 1),
      {"policy", "block|shed", "when the queue is full (default block)",
       [&C](const std::string &V) {
         return parseBackpressurePolicy(V, C.Policy);
       }},
      cli::unsignedFlag("reorder-window", "N",
                        "out-of-order frames buffered (default 16)",
                        C.ReorderWindow, 1),
      cli::unsignedFlag("idle-timeout-ms", "N", "idle cutoff (default 10000)",
                        C.IdleTimeoutMs, 1),
      cli::choiceFlag("scale", "workload scale", Opts.Scale,
                      {"test", "paper"}),
      cli::stringFlag("profile", "NAME", "one workload for every producer",
                      Opts.ProfileName),
      cli::unsignedFlag("seed", "N", "workload seed base", Opts.SeedBase),
      cli::unsignedFlag("batch-events", "N", "events per frame (default 4096)",
                        Opts.BatchEvents, 1),
      cli::unsignedFlag("producers", "N", "producers (default 4)",
                        Opts.Producers, 1),
      cli::unsignedFlag("producer-id", "N", "this producer's id",
                        Opts.ProducerId),
      cli::stringFlag("socket", "PATH", "unix socket", Opts.SocketPath),
      cli::stringFlag("fault", "SPEC", "install a TWPP_FAULT spec", Opts.Fault),
      cli::choiceFlag("format", "report", Opts.Format, {"text", "json"}),
  };
}

int tool::runIngest(const Invocation &Inv) {
#if !defined(_WIN32)
  // A producer vanishing mid-frame must surface as EPIPE on the write,
  // not kill the server (degrade-never-abort starts here).
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const std::string &Mode = Inv.Args[0];
  if (Mode != "replay" && Mode != "serve" && Mode != "produce")
    return Inv.usage("unknown ingest mode '" + Mode + "'");
  if (Mode != "replay" && Opts.SocketPath.empty())
    return Inv.usage(Mode + " needs --socket");
  std::string Error;
  if (!Opts.Fault.empty() && !fault::setFaultSpec(Opts.Fault, &Error))
    return Inv.usage("bad --fault spec: " + Error);
  Opts.Config.Parallel = Inv.Jobs;
  Opts.Config.CrashHook = [] { raise(SIGKILL); };

  if (Mode == "replay")
    return runReplay(Opts);
  if (Mode == "serve")
    return runServe(Opts);
  return runProduce(Opts);
}
