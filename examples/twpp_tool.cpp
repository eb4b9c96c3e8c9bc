//===- examples/twpp_tool.cpp - Command-line driver -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The whole system as one command-line tool:
//
//   twpp_tool trace <program.mini> <archive.twpp> [input...]
//       Compile a mini-language program, run it with the given integer
//       inputs while compacting the WPP online, and write the archive.
//   twpp_tool stats <archive.twpp>
//       Per-function summary of an archive.
//   twpp_tool query <archive.twpp> <function-id>
//       Extract one function's path traces (the paper's headline query).
//   twpp_tool dot-dcg <archive.twpp>
//       Graphviz rendering of the dynamic call graph.
//   twpp_tool dot-trace <archive.twpp> <function-id> <trace-index>
//       Graphviz rendering of one annotated dynamic CFG.
//   twpp_tool reconstruct <archive.twpp> <out.owpp>
//       Expand the archive back to the uncompacted linear WPP.
//
// Global options (before or after the command):
//
//   --jobs N               Fan the function-level compaction stages out
//                          over N worker threads (0 = one per hardware
//                          thread, at most 1024; anything else is a usage
//                          error). Archives are byte-identical for any N.
//   --metrics-out <path>   Collect pipeline telemetry and write it out.
//   --metrics-format FMT   Format for --metrics-out: json (default) or
//                          prom (Prometheus text exposition).
//   --metrics-table        Print the telemetry tables to stderr on exit.
//   --trace-out <path>     Record an event timeline and write it as Chrome
//                          trace-event JSON (chrome://tracing / Perfetto).
//   --self-profile <path>  Compact this run's own execution into a TWPP
//                          archive (TWPP-on-TWPP): the flight recorder's
//                          span stream becomes enter/exit events and the
//                          tool writes <path> (+ <path>.meta sidecar) for
//                          twpp_selfprof / twpp_verify. Also enabled by
//                          the TWPP_SELF_PROFILE environment variable.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dump.h"
#include "lang/Lower.h"
#include "obs/Export.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/SelfProfile.h"
#include "obs/Trace.h"
#include "runtime/Interpreter.h"
#include "support/CliCommon.h"
#include "support/FileIO.h"
#include "trace/UncompactedFile.h"
#include "verify/Verify.h"
#include "wpp/Archive.h"
#include "wpp/HotPaths.h"
#include "wpp/Streaming.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace twpp;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_tool trace <program.mini> <archive.twpp> [input...]\n"
      "       twpp_tool stats <archive.twpp>\n"
      "       twpp_tool query <archive.twpp> <function-id>\n"
      "       twpp_tool dot-dcg <archive.twpp>\n"
      "       twpp_tool dot-trace <archive.twpp> <function-id> <trace-#>\n"
      "       twpp_tool reconstruct <archive.twpp> <out.owpp>\n"
      "global options:\n"
      "       --jobs N               parallel compaction worker threads\n"
      "                              (0 = all hardware threads, max 1024)\n"
      "       --metrics-out <path>   write pipeline telemetry\n"
      "       --metrics-format FMT   json (default) or prom (Prometheus\n"
      "                              text exposition) for --metrics-out\n"
      "       --metrics-table        print telemetry tables to stderr\n"
      "       --trace-out <path>     write Chrome trace-event JSON "
      "timeline\n"
      "       --self-profile <path>  compact this run's own execution\n"
      "                              into a TWPP archive (+ .meta sidecar\n"
      "                              for twpp_selfprof); also enabled by\n"
      "                              the TWPP_SELF_PROFILE env variable\n"
      "durability options (trace command):\n"
      "       --journal <path>       checkpoint compactor state to a\n"
      "                              crash-recovery journal (*.twppj)\n"
      "       --checkpoint-interval N\n"
      "                              events between checkpoints (default\n"
      "                              4096 when --journal is set)\n"
      "       --memory-budget BYTES  degrade (drop oldest open frame's\n"
      "                              block detail) past this state size\n"
      "       --resume <journal>     skip execution; rebuild the compactor\n"
      "                              from the journal's last checkpoint and\n"
      "                              write the archive of that prefix\n"
      "exit codes: 0 success, 1 command failed (bad input, corrupt\n"
      "archive/journal, write failure), 2 usage error\n");
  return 2;
}

/// Parallelism for the compaction stages, set by the global --jobs flag.
ParallelConfig Jobs;

/// Durability knobs for the trace command, set by the global --journal /
/// --checkpoint-interval / --memory-budget flags.
StreamingConfig StreamCfg;

/// When set (--resume), the trace command skips execution and finalizes
/// the archive from this journal's last checkpoint.
std::string ResumeJournal;

bool readTextFile(const std::string &Path, std::string &Text) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return false;
  Text.assign(Bytes.begin(), Bytes.end());
  return true;
}

int cmdTrace(int Argc, char **Argv) {
  if (Argc < 4)
    return usage();
  std::string Source;
  if (!readTextFile(Argv[2], Source)) {
    std::fprintf(stderr, "cannot read %s\n", Argv[2]);
    return 1;
  }
  Module M;
  std::string Error;
  if (!compileProgram(Source, M, Error)) {
    std::fprintf(stderr, "%s: %s\n", Argv[2], Error.c_str());
    return 1;
  }
  std::vector<int64_t> Inputs;
  for (int I = 4; I < Argc; ++I)
    Inputs.push_back(std::atoll(Argv[I]));

  if (!ResumeJournal.empty()) {
    // Crash recovery: rebuild the compactor from the journal's last
    // checkpoint and write the archive of that prefix. Open calls the
    // checkpoint caught mid-flight are closed with the blocks recorded
    // so far.
    std::string ResumeError;
    std::unique_ptr<StreamingCompactor> Sink =
        StreamingCompactor::resumeFromJournal(ResumeJournal, StreamCfg,
                                              &ResumeError);
    if (!Sink) {
      std::fprintf(stderr, "cannot resume from %s: %s\n",
                   ResumeJournal.c_str(), ResumeError.c_str());
      return 1;
    }
    if (Sink->functionCount() != static_cast<uint32_t>(M.Functions.size())) {
      std::fprintf(stderr,
                   "journal %s records %u functions but %s has %zu — "
                   "wrong program?\n",
                   ResumeJournal.c_str(), Sink->functionCount(), Argv[2],
                   M.Functions.size());
      return 1;
    }
    uint64_t Events = Sink->eventsConsumed();
    while (!Sink->balanced())
      Sink->onExit();
    TwppWpp Compacted = Sink->takeCompacted(Jobs);
    IoError WriteError;
    if (!writeArchiveFile(Argv[3], Compacted, Jobs, &WriteError)) {
      std::fprintf(stderr, "cannot write %s: %s\n", Argv[3],
                   WriteError.message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "wrote %s from %s (%llu checkpointed events recovered)\n",
                 Argv[3], ResumeJournal.c_str(),
                 (unsigned long long)Events);
    return 0;
  }

  // Online compaction: the raw event stream never exists. With --journal
  // the compactor checkpoints its state as it goes.
  if (!StreamCfg.JournalPath.empty() && StreamCfg.CheckpointInterval == 0)
    StreamCfg.CheckpointInterval = 4096;
  StreamingCompactor Sink(static_cast<uint32_t>(M.Functions.size()),
                          StreamCfg);
  Interpreter Interp(M, Sink);
  ExecutionResult Result = Interp.run(Inputs);
  if (!Result.Completed) {
    std::fprintf(stderr, "execution aborted: %s\n", Result.Error.c_str());
    return 1;
  }
  for (int64_t Value : Result.Output)
    std::printf("%lld\n", static_cast<long long>(Value));

  if (!StreamCfg.JournalPath.empty()) {
    IoError Checkpoint = Sink.checkpointNow();
    if (!Checkpoint)
      std::fprintf(stderr, "warning: final checkpoint failed: %s\n",
                   Checkpoint.message().c_str());
  }
  if (!Sink.lastJournalError().ok())
    std::fprintf(stderr, "warning: journaling degraded: %s\n",
                 Sink.lastJournalError().message().c_str());
  if (Sink.degradedFrames() > 0)
    std::fprintf(stderr,
                 "warning: memory budget dropped block detail of %llu "
                 "open frames\n",
                 (unsigned long long)Sink.degradedFrames());

  TwppWpp Compacted = Sink.takeCompacted(Jobs);
  IoError WriteError;
  if (!writeArchiveFile(Argv[3], Compacted, Jobs, &WriteError)) {
    std::fprintf(stderr, "cannot write %s: %s\n", Argv[3],
                 WriteError.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%llu blocks executed, %zu functions)\n",
               Argv[3], (unsigned long long)Result.BlocksExecuted,
               M.Functions.size());
  return 0;
}

bool openArchive(const char *Path, ArchiveReader &Reader) {
  if (Reader.open(Path))
    return true;
  const verify::Diagnostic &D = Reader.lastError();
  if (D.ByteOffset != verify::NoByteOffset)
    std::fprintf(stderr, "cannot open archive %s: [%s] %s: %s (byte %llu)\n",
                 Path, D.CheckId.c_str(), D.Location.c_str(),
                 D.Message.c_str(),
                 static_cast<unsigned long long>(D.ByteOffset));
  else
    std::fprintf(stderr, "cannot open archive %s: [%s] %s: %s\n", Path,
                 D.CheckId.c_str(), D.Location.c_str(), D.Message.c_str());
  return false;
}

int cmdStats(int Argc, char **Argv) {
  if (Argc != 3)
    return usage();
  ArchiveReader Reader;
  if (!openArchive(Argv[2], Reader))
    return 1;
  TwppWpp Wpp;
  if (!Reader.readAll(Wpp)) {
    std::fprintf(stderr, "corrupt archive\n");
    return 1;
  }
  std::fputs(dumpSummary(Wpp).c_str(), stdout);
  return 0;
}

int cmdQuery(int Argc, char **Argv) {
  if (Argc != 4)
    return usage();
  ArchiveReader Reader;
  if (!openArchive(Argv[2], Reader))
    return 1;
  FunctionId F = static_cast<FunctionId>(std::atoi(Argv[3]));
  TwppFunctionTable Table;
  if (!Reader.extractFunction(F, Table)) {
    std::fprintf(stderr, "no function %u\n", F);
    return 1;
  }
  for (const HotPath &Path : hotPathsOf(Table)) {
    std::printf("x%llu:", (unsigned long long)Path.UseCount);
    for (BlockId B : Path.Blocks)
      std::printf(" %u", B);
    std::printf("\n");
  }
  return 0;
}

int cmdDotDcg(int Argc, char **Argv) {
  if (Argc != 3)
    return usage();
  ArchiveReader Reader;
  if (!openArchive(Argv[2], Reader))
    return 1;
  DynamicCallGraph Dcg;
  if (!Reader.readDcg(Dcg)) {
    std::fprintf(stderr, "corrupt DCG\n");
    return 1;
  }
  std::fputs(dumpDcgDot(Dcg).c_str(), stdout);
  return 0;
}

int cmdDotTrace(int Argc, char **Argv) {
  if (Argc != 5)
    return usage();
  ArchiveReader Reader;
  if (!openArchive(Argv[2], Reader))
    return 1;
  FunctionId F = static_cast<FunctionId>(std::atoi(Argv[3]));
  size_t TraceIndex = static_cast<size_t>(std::atoi(Argv[4]));
  TwppFunctionTable Table;
  if (!Reader.extractFunction(F, Table) ||
      TraceIndex >= Table.Traces.size()) {
    std::fprintf(stderr, "no such function/trace\n");
    return 1;
  }
  auto [StringIdx, DictIdx] = Table.Traces[TraceIndex];
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(
      Table.TraceStrings[StringIdx], Table.Dictionaries[DictIdx]);
  std::fputs(dumpAnnotatedCfgDot(Cfg, "f" + std::to_string(F) + "_t" +
                                          std::to_string(TraceIndex))
                 .c_str(),
             stdout);
  return 0;
}

int cmdReconstruct(int Argc, char **Argv) {
  if (Argc != 4)
    return usage();
  ArchiveReader Reader;
  if (!openArchive(Argv[2], Reader))
    return 1;
  TwppWpp Wpp;
  if (!Reader.readAll(Wpp)) {
    std::fprintf(stderr, "corrupt archive\n");
    return 1;
  }
  RawTrace Trace = reconstructRawTrace(Wpp);
  if (!writeUncompactedTraceFile(Argv[3], Trace)) {
    std::fprintf(stderr, "cannot write %s\n", Argv[3]);
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu events)\n", Argv[3],
               Trace.Events.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Arm the TWPP_VERIFY post-stage assertions; they fire only when the
  // environment variable is set.
  verify::installPipelineVerifier();
  // Strip the global telemetry options before command dispatch so they
  // work in any position.
  std::string MetricsOut;
  std::string MetricsFormat = "json";
  std::string TraceOut;
  std::string SelfProfilePath;
  bool MetricsTable = false;
  std::vector<char *> Args;
  Args.reserve(static_cast<size_t>(Argc) + 1);
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--metrics-out") == 0) {
      if (I + 1 >= Argc)
        return usage();
      MetricsOut = Argv[++I];
    } else if (std::strcmp(Argv[I], "--metrics-format") == 0) {
      if (I + 1 >= Argc)
        return usage();
      MetricsFormat = Argv[++I];
    } else if (std::strncmp(Argv[I], "--metrics-format=", 17) == 0) {
      MetricsFormat = Argv[I] + 17;
    } else if (std::strcmp(Argv[I], "--self-profile") == 0) {
      if (I + 1 >= Argc)
        return usage();
      SelfProfilePath = Argv[++I];
    } else if (std::strncmp(Argv[I], "--self-profile=", 15) == 0) {
      SelfProfilePath = Argv[I] + 15;
    } else if (std::strcmp(Argv[I], "--trace-out") == 0) {
      if (I + 1 >= Argc)
        return usage();
      TraceOut = Argv[++I];
    } else if (std::strcmp(Argv[I], "--jobs") == 0) {
      if (I + 1 >= Argc || !cli::parseJobs(Argv[++I], Jobs.Jobs))
        return usage();
    } else if (std::strcmp(Argv[I], "--journal") == 0) {
      if (I + 1 >= Argc)
        return usage();
      StreamCfg.JournalPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--checkpoint-interval") == 0) {
      if (I + 1 >= Argc)
        return usage();
      StreamCfg.CheckpointInterval =
          static_cast<uint64_t>(std::atoll(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--memory-budget") == 0) {
      if (I + 1 >= Argc)
        return usage();
      StreamCfg.MemoryBudgetBytes =
          static_cast<uint64_t>(std::atoll(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--resume") == 0) {
      if (I + 1 >= Argc)
        return usage();
      ResumeJournal = Argv[++I];
    } else if (std::strcmp(Argv[I], "--metrics-table") == 0) {
      MetricsTable = true;
    } else {
      Args.push_back(Argv[I]);
    }
  }
  Args.push_back(nullptr);
  int Count = static_cast<int>(Args.size()) - 1;
  if (Count < 2)
    return usage();
  if (MetricsFormat != "json" && MetricsFormat != "prom") {
    std::fprintf(stderr, "unknown --metrics-format %s (json or prom)\n",
                 MetricsFormat.c_str());
    return usage();
  }

  if (!MetricsOut.empty() || MetricsTable) {
    obs::setMetricsEnabled(true);
    // Pre-register every canonical metric so the export enumerates all
    // pipeline stages, zero-valued when this command does not reach them.
    obs::names::registerCanonicalMetrics(obs::metrics());
  }
  if (!TraceOut.empty()) {
    obs::setTracingEnabled(true);
    obs::setCurrentThreadName("main");
  }
  // Self-profiling: compact this very run into a TWPP archive. The flag
  // wins over the TWPP_SELF_PROFILE environment variable; either turns
  // the flight recorder on for the SelfProfiler to consume.
  bool SelfProfiling = false;
  if (!SelfProfilePath.empty()) {
    obs::SelfProfileConfig SelfCfg;
    SelfCfg.ArchivePath = SelfProfilePath;
    SelfProfiling = obs::enableSelfProfile(std::move(SelfCfg));
  } else {
    SelfProfiling = obs::maybeEnableSelfProfileFromEnv();
  }
  if (SelfProfiling)
    obs::setCurrentThreadName("main");
  bool Telemetry = !MetricsOut.empty() || MetricsTable || !TraceOut.empty();
  if (Telemetry) {
    // Memory telemetry rides along with either sink: the tracker feeds
    // the mem.tracked_* gauges and the poller samples RSS (emitting
    // counter tracks when tracing).
    obs::setMemTrackingEnabled(true);
    obs::startMemPoller();
  }

  int Exit;
  char **Cmd = Args.data();
  if (std::strcmp(Cmd[1], "trace") == 0)
    Exit = cmdTrace(Count, Cmd);
  else if (std::strcmp(Cmd[1], "stats") == 0)
    Exit = cmdStats(Count, Cmd);
  else if (std::strcmp(Cmd[1], "query") == 0)
    Exit = cmdQuery(Count, Cmd);
  else if (std::strcmp(Cmd[1], "dot-dcg") == 0)
    Exit = cmdDotDcg(Count, Cmd);
  else if (std::strcmp(Cmd[1], "dot-trace") == 0)
    Exit = cmdDotTrace(Count, Cmd);
  else if (std::strcmp(Cmd[1], "reconstruct") == 0)
    Exit = cmdReconstruct(Count, Cmd);
  else
    return usage();

  // Finish the self-profile before exporting metrics so the selfprof.*
  // counters it publishes land in the export.
  if (SelfProfiling) {
    obs::SelfProfileStats Stats;
    std::string SelfError;
    if (obs::finishSelfProfile(&Stats, &SelfError)) {
      std::fprintf(stderr,
                   "self-profile: wrote %llu spans (%llu events, %llu "
                   "functions, %llu records dropped)\n",
                   (unsigned long long)Stats.Spans,
                   (unsigned long long)Stats.Events,
                   (unsigned long long)Stats.Functions,
                   (unsigned long long)Stats.RecordsDropped);
    } else {
      std::fprintf(stderr, "cannot write self-profile: %s\n",
                   SelfError.c_str());
      if (Exit == 0)
        Exit = 1;
    }
  }
  if (Telemetry) {
    obs::stopMemPoller();
    obs::publishMemMetrics(obs::metrics());
  }
  bool MetricsOk =
      MetricsOut.empty() ||
      (MetricsFormat == "prom"
           ? obs::writeMetricsPromFile(MetricsOut, obs::metrics())
           : obs::writeMetricsJsonFile(MetricsOut, obs::metrics()));
  if (!MetricsOk)
    std::fprintf(stderr, "cannot write metrics to %s\n", MetricsOut.c_str());
  if (MetricsTable)
    std::fputs(obs::renderMetricsTable(obs::metrics()).c_str(), stderr);
  if (!TraceOut.empty() &&
      !obs::writeTraceJsonFile(TraceOut, obs::traceRecorder()))
    std::fprintf(stderr, "cannot write trace to %s\n", TraceOut.c_str());
  return Exit;
}
