//===- examples/quickstart.cpp - End-to-end tour of the library ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Quickstart: compile a small program in the bundled mini language, run
// it under the tracing interpreter to collect its whole program path,
// compact the WPP into timestamped form, write/reopen the archive, and
// answer the canonical query — "give me every path trace of function f"
// — without touching the rest of the file.
//
// The telemetry sink flags of obs::TelemetrySession all work here. With
// `--self-profile <out.twppa>` the run additionally compacts its *own*
// execution into a TWPP archive — the library profiling itself with its
// own representation.
//
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "obs/TelemetrySession.h"
#include "runtime/Interpreter.h"
#include "support/Stats.h"
#include "wpp/Archive.h"
#include "wpp/Sizes.h"

#include <cstdio>

using namespace twpp;

int main(int Argc, char **Argv) {
  obs::TelemetrySession Telemetry;
  if (!Telemetry.parseCommandLine(Argc, Argv))
    return cli::ExitUsage;
  // Measure the equivalent Chrome-JSON size too: the self-profile's
  // sidecar then carries the compaction ratio CI asserts.
  Telemetry.start(/*CompareTraceJson=*/true);

  // A miniature program in the spirit of the paper's Figure 1: main's
  // loop calls f five times; f's loop body follows one of two paths.
  const char *Source = R"(
    fn f(mode, n) {
      i = 0;
      acc = 0;
      while (i < n) {
        if (mode > 0) { acc = acc + i; } else { acc = acc - i; }
        i = i + 1;
      }
      return acc;
    }
    fn main() {
      k = 0;
      while (k < 5) {
        r = call f(k % 2, 3);
        print r;
        k = k + 1;
      }
    }
  )";

  Module M;
  std::string Error;
  if (!compileProgram(Source, M, Error)) {
    std::fprintf(stderr, "compile error: %s\n", Error.c_str());
    return 1;
  }

  // 1. Collect the whole program path.
  ExecutionResult Result;
  RawTrace Trace = traceExecution(M, {}, Result);
  if (!Result.Completed) {
    std::fprintf(stderr, "execution failed: %s\n", Result.Error.c_str());
    return 1;
  }
  std::printf("executed %llu basic blocks across %llu calls\n",
              (unsigned long long)Trace.blockEventCount(),
              (unsigned long long)Trace.callCount());

  // 2. Compact: partition + redundancy removal + DBB dictionaries +
  //    timestamped form with series compaction.
  TwppWpp Compacted = compactWpp(Trace);
  PartitionedWpp Partitioned = partitionWpp(Trace);
  StageSizes Sizes = measureStages(Partitioned, applyDbbCompaction(Partitioned),
                                   Compacted);
  std::printf("trace bytes: %llu raw -> %llu deduped -> %llu TWPP\n",
              (unsigned long long)Sizes.OwppTraceBytes,
              (unsigned long long)Sizes.DedupedTraceBytes,
              (unsigned long long)Sizes.TwppTraceBytes);

  // Losslessness is a library invariant, not an accident:
  if (!(reconstructRawTrace(Compacted) == Trace)) {
    std::fprintf(stderr, "reconstruction mismatch!\n");
    return 1;
  }
  std::printf("round trip: reconstructed WPP == original WPP\n");

  // 3. Save as an archive and answer a per-function query from disk.
  const char *Path = "/tmp/twpp_quickstart.twpp";
  if (!writeArchiveFile(Path, Compacted)) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return 1;
  }
  ArchiveReader Reader;
  if (!Reader.open(Path)) {
    std::fprintf(stderr, "cannot open %s\n", Path);
    return 1;
  }

  const Function *F = M.findFunction("f");
  FunctionPathTraces Paths;
  Reader.extractFunctionPathTraces(F->Id, Paths);
  std::printf("\nfunction 'f': %llu calls, %zu unique path traces\n",
              (unsigned long long)Paths.CallCount, Paths.Traces.size());
  for (size_t I = 0; I < Paths.Traces.size(); ++I) {
    std::printf("  trace %zu (used %llu times): ", I,
                (unsigned long long)Paths.UseCounts[I]);
    for (BlockId B : Paths.Traces[I])
      std::printf("%u.", B);
    std::printf("\n");
  }
  std::remove(Path);

  return Telemetry.finish(0);
}
