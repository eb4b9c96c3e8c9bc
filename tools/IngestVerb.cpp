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
#include "support/FaultInjection.h"
#include "workloads/Workload.h"

#include <csignal>
#include <cstdio>
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
  std::string SocketPath;
  std::string Fault;
  uint64_t Producers = 4;
  uint64_t ProducerId = 0;
} Opts;

/// Builds the deterministic replay trace of producer \p Index: a test
/// workload profile reseeded per producer so streams differ but reruns
/// (and the golden in-process compaction CI diffs against) agree byte
/// for byte.
RawTrace producerTrace(uint64_t Index) {
  std::vector<WorkloadProfile> Profiles = testProfiles();
  WorkloadProfile Profile =
      Profiles[static_cast<size_t>(Index) % Profiles.size()];
  Profile.Seed += Index;
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
          "%llu idle timeouts\n",
          static_cast<unsigned long long>(Report.CorruptFrames),
          static_cast<unsigned long long>(Report.ResyncBytes),
          static_cast<unsigned long long>(Report.ReadRetries),
          static_cast<unsigned long long>(Report.IdleTimeouts));
  for (const ProducerReport &P : Report.Producers) {
    appendf(Out,
            "  p%u: %llu/%llu events, %llu dropped, %llu lost, %llu gaps, "
            "%llu dup, %llu reordered, %llu synth exits%s%s%s%s\n",
            P.ProducerId, static_cast<unsigned long long>(P.EventsApplied),
            static_cast<unsigned long long>(P.EventsDeclared),
            static_cast<unsigned long long>(P.EventsDropped),
            static_cast<unsigned long long>(P.eventsLost()),
            static_cast<unsigned long long>(P.SeqGaps),
            static_cast<unsigned long long>(P.FramesDuplicate),
            static_cast<unsigned long long>(P.FramesReordered),
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

void reportJson(const IngestReport &Report, obs::JsonWriter &W) {
  W.field("clean", Report.clean())
      .field("aborted", Report.Aborted)
      .field("frames", Report.Frames)
      .field("frame_bytes", Report.FrameBytes)
      .field("events", Report.EventsApplied)
      .field("corrupt_frames", Report.CorruptFrames)
      .field("resync_bytes", Report.ResyncBytes)
      .field("read_retries", Report.ReadRetries)
      .field("idle_timeouts", Report.IdleTimeouts)
      .field("elapsed_us", Report.ElapsedUs);
  if (!Report.FatalError.empty())
    W.field("fatal", Report.FatalError);
  W.beginArray("producers");
  for (const ProducerReport &P : Report.Producers) {
    W.beginObject()
        .field("id", P.ProducerId)
        .field("lossless", P.lossless())
        .field("function_count", P.FunctionCount)
        .field("saw_hello", P.SawHello)
        .field("saw_bye", P.SawBye)
        .field("resumed", P.Resumed)
        .field("disconnected", P.Disconnected)
        .field("frames_applied", P.FramesApplied)
        .field("events_applied", P.EventsApplied)
        .field("events_declared", P.EventsDeclared)
        .field("events_dropped", P.EventsDropped)
        .field("events_lost", P.eventsLost())
        .field("frames_invalid", P.FramesInvalid)
        .field("frames_duplicate", P.FramesDuplicate)
        .field("frames_reordered", P.FramesReordered)
        .field("frames_replayed", P.FramesReplayed)
        .field("seq_gaps", P.SeqGaps)
        .field("synthesized_exits", P.SynthesizedExits)
        .field("degraded_frames", P.DegradedFrames)
        .field("checkpoints", P.CheckpointsWritten)
        .field("checkpoint_failures", P.CheckpointFailures);
    if (!P.ArchivePath.empty())
      W.field("archive", P.ArchivePath);
    if (!P.ArchiveError.ok())
      W.field("archive_error", P.ArchiveError.message());
    W.end();
  }
  W.end();
}

int runProduce(const Invocation &Inv) {
  std::string Error;
  int Fd = connectUnixSocket(Opts.SocketPath, &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "twpp ingest: %s\n", Error.c_str());
    return cli::ExitUsage;
  }
  RawTrace Trace = producerTrace(Opts.ProducerId);
  ProducerOptions PO;
  PO.ProducerId = static_cast<uint32_t>(Opts.ProducerId);
  ProducerWireStats Stats;
  bool Ok = sendTraceOverFd(Fd, Trace, PO, &Stats);
#if !defined(_WIN32)
  ::close(Fd);
#endif
  if (!Ok) {
    std::fprintf(stderr, "twpp ingest: producer %llu: send failed "
                         "(receiver gone)\n",
                 static_cast<unsigned long long>(Opts.ProducerId));
    return cli::ExitFindings;
  }
  if (Inv.Json)
    Inv.Json->Body.field("producer", Opts.ProducerId)
        .field("frames", Stats.FramesSent)
        .field("bytes", Stats.BytesSent)
        .field("events", Trace.Events.size());
  else
    std::printf("producer %llu: %llu frames, %llu bytes, %llu events\n",
                static_cast<unsigned long long>(Opts.ProducerId),
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
      cli::unsignedFlag("producers", "N", "producers (default 4)",
                        Opts.Producers, 1),
      cli::unsignedFlag("producer-id", "N", "this producer's id",
                        Opts.ProducerId),
      cli::stringFlag("socket", "PATH", "unix socket", Opts.SocketPath),
      cli::stringFlag("fault", "SPEC", "install a TWPP_FAULT spec", Opts.Fault),
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
  Opts.Config.CrashHook = [] { raise(SIGKILL); };

  if (Mode == "produce")
    return runProduce(Inv);

  IngestReport Report;
  if (Mode == "replay") {
    std::vector<RawTrace> Traces;
    for (uint64_t I = 0; I < Opts.Producers; ++I)
      Traces.push_back(producerTrace(I));
    Report = runLoopbackIngest(Opts.Config, Traces);
  } else {
    IngestServer Server(Opts.Config);
    if (!Server.listenUnixSocket(Opts.SocketPath,
                                 static_cast<size_t>(Opts.Producers), &Error)) {
      std::fprintf(stderr, "twpp ingest: %s\n", Error.c_str());
      return cli::ExitUsage;
    }
    Report = Server.run();
  }
  if (!Report.FatalError.empty()) {
    std::fprintf(stderr, "twpp ingest: %s\n", Report.FatalError.c_str());
    return cli::ExitUsage;
  }
  publishIngestMetrics(Report);
  if (Inv.Json)
    reportJson(Report, Inv.Json->Body);
  else
    std::fputs(renderReportText(Report).c_str(), stdout);
  return Report.clean() ? cli::ExitSuccess : cli::ExitFindings;
}
