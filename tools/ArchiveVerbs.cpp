//===- tools/ArchiveVerbs.cpp - Write and read TWPP archives --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The verbs that make an archive and look inside it:
//
//   twpp trace <program.mini> <archive.twpp> [input...]
//       Compile a mini-language program, run it with the given integer
//       inputs while compacting the WPP online, and write the archive.
//       --journal / --checkpoint-interval / --memory-budget / --resume
//       make the run durable (docs/DURABILITY.md).
//   twpp stats <archive.twpp>
//       Per-function summary of an archive.
//   twpp query <archive.twpp> <function-id>
//       Extract one function's path traces (the paper's headline query).
//   twpp dot-dcg <archive.twpp>
//       Graphviz rendering of the dynamic call graph.
//   twpp dot-trace <archive.twpp> <function-id> <trace-index>
//       Graphviz rendering of one annotated dynamic CFG.
//   twpp reconstruct <archive.twpp> <out.owpp>
//       Expand the archive back to the uncompacted linear WPP.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "dataflow/Dump.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "support/FileIO.h"
#include "trace/UncompactedFile.h"
#include "wpp/Archive.h"
#include "wpp/HotPaths.h"
#include "wpp/Streaming.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::tool;

namespace {

/// Durability knobs for the trace verb.
StreamingConfig StreamCfg;

/// When set (--resume), the trace verb skips execution and finalizes
/// the archive from this journal's last checkpoint.
std::string ResumeJournal;

/// Opens \p Path and decodes all of it, saying why on stderr if it cannot.
bool readArchive(const std::string &Path, TwppWpp &Wpp) {
  ArchiveReader Reader;
  if (!openArchive(Path, Reader))
    return false;
  if (Reader.readAll(Wpp))
    return true;
  std::fprintf(stderr, "corrupt archive\n");
  return false;
}

/// Writes what \p Sink compacted to \p Path, saying why on stderr if it
/// cannot.
bool writeCompacted(StreamingCompactor &Sink, const char *Path) {
  IoError WriteError;
  if (writeArchiveFile(Path, Sink.takeCompacted(), {}, &WriteError))
    return true;
  std::fprintf(stderr, "cannot write %s: %s\n", Path,
               WriteError.message().c_str());
  return false;
}

/// Says on stderr why \p Reader's last operation failed, after \p What.
void reportReaderError(const std::string &What, const ArchiveReader &Reader) {
  const verify::Diagnostic &D = Reader.lastError();
  std::string At = D.ByteOffset == verify::NoByteOffset
                       ? ""
                       : " (byte " + std::to_string(D.ByteOffset) + ")";
  std::fprintf(stderr, "%s: [%s] %s: %s%s\n", What.c_str(),
               D.CheckId.c_str(), D.Location.c_str(), D.Message.c_str(),
               At.c_str());
}

} // namespace

bool tool::openArchive(const std::string &Path, ArchiveReader &Reader) {
  if (Reader.open(Path))
    return true;
  reportReaderError("cannot open archive " + Path, Reader);
  return false;
}

bool tool::loadProgram(const std::string &Path, Module &M) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes)) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    return false;
  }
  std::string Error;
  if (compileProgram(std::string(Bytes.begin(), Bytes.end()), M, Error))
    return true;
  std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
  return false;
}

cli::FlagTable tool::traceFlags() {
  return {
      cli::stringFlag("journal", "PATH", "checkpoint to a crash journal",
                      StreamCfg.JournalPath),
      cli::unsignedFlag("checkpoint-interval", "N",
                        "events between checkpoints (default 4096)",
                        StreamCfg.CheckpointInterval),
      cli::unsignedFlag("memory-budget", "BYTES",
                        "degrade the oldest open frame past this state size",
                        StreamCfg.MemoryBudgetBytes),
      cli::stringFlag("resume", "JOURNAL",
                      "write the archive of the journal's last checkpoint",
                      ResumeJournal),
  };
}

int tool::runTrace(const Invocation &Inv) {
  const char *ProgramPath = Inv.Args[0].c_str();
  const char *ArchivePath = Inv.Args[1].c_str();
  std::vector<int64_t> Inputs(Inv.Args.size() - 2);
  for (size_t I = 2; I < Inv.Args.size(); ++I)
    if (!cli::parseSigned(Inv.Args[I], Inputs[I - 2]))
      return Inv.usage("input '" + Inv.Args[I] + "' is not an integer");
  Module M;
  if (!loadProgram(ProgramPath, M))
    return 1;

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
                   ResumeJournal.c_str(), Sink->functionCount(), ProgramPath,
                   M.Functions.size());
      return 1;
    }
    uint64_t Events = Sink->eventsConsumed();
    while (!Sink->balanced())
      Sink->onExit();
    if (!writeCompacted(*Sink, ArchivePath))
      return 1;
    std::fprintf(stderr,
                 "wrote %s from %s (%llu checkpointed events recovered)\n",
                 ArchivePath, ResumeJournal.c_str(),
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

  if (!writeCompacted(Sink, ArchivePath))
    return 1;
  std::fprintf(stderr, "wrote %s (%llu blocks executed, %zu functions)\n",
               ArchivePath, (unsigned long long)Result.BlocksExecuted,
               M.Functions.size());
  return 0;
}

int tool::runStats(const Invocation &Inv) {
  TwppWpp Wpp;
  if (!readArchive(Inv.Args[0], Wpp))
    return 1;
  std::fputs(dumpSummary(Wpp).c_str(), stdout);
  return 0;
}

int tool::runQuery(const Invocation &Inv) {
  FunctionId F = 0;
  if (!cli::parseUnsigned(Inv.Args[1], F))
    return Inv.usage("bad function id '" + Inv.Args[1] + "'");
  ArchiveReader Reader;
  if (!openArchive(Inv.Args[0], Reader))
    return 1;
  FunctionPathTraces Expanded;
  if (!Reader.extractFunctionPathTraces(F, Expanded)) {
    reportReaderError("cannot query function " + std::to_string(F), Reader);
    return 1;
  }
  for (const HotPath &Path : hotPathsOf(std::move(Expanded))) {
    std::printf("x%llu:", (unsigned long long)Path.UseCount);
    for (BlockId B : Path.Blocks)
      std::printf(" %u", B);
    std::printf("\n");
  }
  return 0;
}

int tool::runDotDcg(const Invocation &Inv) {
  ArchiveReader Reader;
  if (!openArchive(Inv.Args[0], Reader))
    return 1;
  DynamicCallGraph Dcg;
  if (!Reader.readDcg(Dcg)) {
    std::fprintf(stderr, "corrupt DCG\n");
    return 1;
  }
  std::fputs(dumpDcgDot(Dcg).c_str(), stdout);
  return 0;
}

int tool::runDotTrace(const Invocation &Inv) {
  FunctionId F = 0;
  size_t TraceIndex = 0;
  if (!cli::parseUnsigned(Inv.Args[1], F) ||
      !cli::parseUnsigned(Inv.Args[2], TraceIndex))
    return Inv.usage("bad function id or trace index");
  ArchiveReader Reader;
  if (!openArchive(Inv.Args[0], Reader))
    return 1;
  TwppFunctionTable Table;
  if (!Reader.extractFunction(F, Table) ||
      TraceIndex >= Table.Traces.size()) {
    std::fprintf(stderr, "no such function/trace\n");
    return 1;
  }
  auto [StringIdx, DictIdx] = Table.Traces[TraceIndex];
  const TwppTrace &Trace = Table.TraceStrings[StringIdx];
  std::vector<BlockId> Sequence;
  if (!blockSequenceFromTwpp(Trace, Sequence)) {
    std::fprintf(stderr,
                 "function %u trace %zu: timestamp sets do not tile "
                 "1..%u (run twpp verify)\n",
                 F, TraceIndex, Trace.Length);
    return 1;
  }
  AnnotatedDynamicCfg Cfg =
      buildAnnotatedCfg(Trace, Table.Dictionaries[DictIdx]);
  std::fputs(dumpAnnotatedCfgDot(Cfg, "f" + std::to_string(F) + "_t" +
                                          std::to_string(TraceIndex))
                 .c_str(),
             stdout);
  return 0;
}

int tool::runReconstruct(const Invocation &Inv) {
  const char *OutPath = Inv.Args[1].c_str();
  TwppWpp Wpp;
  if (!readArchive(Inv.Args[0], Wpp))
    return 1;
  RawTrace Trace;
  FunctionId Untiled = 0;
  if (!reconstructRawTrace(Wpp, Trace, &Untiled)) {
    std::fprintf(stderr,
                 "function %u: timestamp sets do not tile a trace "
                 "(run twpp verify)\n",
                 Untiled);
    return 1;
  }
  if (!writeUncompactedTraceFile(OutPath, Trace)) {
    std::fprintf(stderr, "cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu events)\n", OutPath,
               Trace.Events.size());
  return 0;
}
