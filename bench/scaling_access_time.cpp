//===- bench/scaling_access_time.cpp - Extraction cost vs trace size -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Supports the Table 4 discussion in EXPERIMENTS.md: extraction from the
// uncompacted WPP scales linearly with trace size (full-file scan) while
// archive extraction is essentially constant (index row + one block), so
// the speedup grows with the trace — at the paper's 100s-of-MB inputs
// the same code yields its >3 orders of magnitude. One profile (130.li)
// is generated at increasing call budgets and both paths are timed.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/FileIO.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "trace/UncompactedFile.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"

#include <cstdio>

using namespace twpp;

int main(int Argc, char **Argv) {
  bench::BenchTelemetry Telemetry(Argc, Argv, "scaling_access_time");
  TablePrinter Table(
      "Scaling: per-function extraction time vs trace size (130.li shape)");
  Table.addRow({"Calls", "Events", "OWPP (KB)", "Archive (KB)",
                "U scan (ms)", "C (ms)", "Speedup"});

  WorkloadProfile Base = paperProfiles()[2]; // 130.li
  for (uint64_t Scale : {1, 2, 4, 8, 16}) {
    WorkloadProfile P = Base;
    P.TargetCalls = Base.TargetCalls / 16 * Scale;
    std::fprintf(stderr, "[bench] scale x%llu...\n",
                 (unsigned long long)Scale);
    RawTrace Trace = generateWorkloadTrace(P);
    TwppWpp Compacted = compactWpp(Trace);

    std::string OwppPath = "/tmp/twpp_scaling.owpp";
    std::string ArchivePath = "/tmp/twpp_scaling.twpp";
    if (!writeUncompactedTraceFile(OwppPath, Trace) ||
        !writeArchiveFile(ArchivePath, Compacted)) {
      std::fprintf(stderr, "write failed\n");
      return 1;
    }

    // Average over a handful of mid-frequency functions.
    std::vector<FunctionId> Sample;
    for (FunctionId F = 0;
         F < Compacted.Functions.size() && Sample.size() < 5; ++F)
      if (Compacted.Functions[F].CallCount > 10)
        Sample.push_back(F);

    RunningStats U, C;
    for (FunctionId F : Sample) {
      Stopwatch Sw;
      std::vector<std::vector<BlockId>> Traces;
      extractFunctionTracesFromFile(OwppPath, F, Traces);
      U.add(Sw.elapsedMs());

      // Archive extraction: map the file, then decode one block.
      Sw.reset();
      ArchiveReader Reader;
      Reader.open(ArchivePath);
      FunctionPathTraces Out;
      Reader.extractFunctionPathTraces(F, Out);
      C.add(Sw.elapsedMs());
    }

    Table.addRow({std::to_string(P.TargetCalls),
                  std::to_string(Trace.Events.size()),
                  formatDouble(fileSize(OwppPath).value_or(0) / 1024.0, 1),
                  formatDouble(fileSize(ArchivePath).value_or(0) / 1024.0, 1),
                  formatDouble(U.mean(), 2), formatDouble(C.mean(), 3),
                  formatFactor(U.mean() / std::max(C.mean(), 1e-9))});
    std::remove(OwppPath.c_str());
    std::remove(ArchivePath.c_str());
    std::string Label = "x";
    Label += std::to_string(Scale);
    Telemetry.checkpoint(Label);
  }
  Table.print();
  return Telemetry.finish(0);
}
