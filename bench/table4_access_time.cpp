//===- bench/table4_access_time.cpp - Paper Table 4 ------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 4: time to extract one function's path traces from (U) the
// uncompacted WPP file — a full scan of the linear trace — versus (C) the
// compacted TWPP archive — an index row plus one block read. The paper
// reports >3 orders of magnitude speedup on average; absolute times
// differ on modern hardware but the asymmetric costs are the same.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/FileIO.h"
#include "trace/UncompactedFile.h"
#include "wpp/Archive.h"

#include <algorithm>
#include <cstdio>

using namespace twpp;
using namespace twpp::bench;

namespace {

/// Functions actually called in the run (extraction of never-called
/// functions is trivially fast and would skew the averages).
std::vector<FunctionId> calledFunctions(const ProfileData &Data) {
  std::vector<FunctionId> Out;
  for (FunctionId F = 0; F < Data.Partitioned.Functions.size(); ++F)
    if (Data.Partitioned.Functions[F].CallCount > 0)
      Out.push_back(F);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table4_access_time");
  TablePrinter Table(
      "Table 4: per-function extraction times, uncompacted (U) vs "
      "compacted archive (C)");
  Table.addRow({"Program", "avg.U (ms)", "max.U (ms)", "avg.C (ms)",
                "max.C (ms)", "Speedup (avg)"});

  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    std::string OwppPath = "/tmp/twpp_bench_" + Data.Profile.Name + ".owpp";
    std::string ArchivePath =
        "/tmp/twpp_bench_" + Data.Profile.Name + ".twpp";
    if (!writeUncompactedTraceFile(OwppPath, Data.Trace) ||
        !writeArchiveFile(ArchivePath, Data.Twpp)) {
      std::fprintf(stderr, "failed to write %s files\n",
                   Data.Profile.Name.c_str());
      return 1;
    }

    std::vector<FunctionId> Functions = calledFunctions(Data);
    // The uncompacted scan costs the same regardless of the function, so
    // a sample of functions gives a faithful U average at tolerable cost.
    std::vector<FunctionId> Sample;
    for (size_t I = 0; I < Functions.size() && Sample.size() < 10;
         I += std::max<size_t>(1, Functions.size() / 10))
      Sample.push_back(Functions[I]);

    RunningStats U;
    for (FunctionId F : Sample) {
      Stopwatch Sw;
      std::vector<std::vector<BlockId>> Traces;
      extractFunctionTracesFromFile(OwppPath, F, Traces);
      U.add(Sw.elapsedMs());
    }

    ArchiveReader Reader;
    if (!Reader.open(ArchivePath)) {
      std::fprintf(stderr, "failed to open archive\n");
      return 1;
    }
    RunningStats C;
    for (FunctionId F : Functions) {
      Stopwatch Sw;
      FunctionPathTraces Out;
      // Re-open per query so C pays its full cost (index + block read),
      // mirroring the paper's standalone extraction scenario.
      ArchiveReader Fresh;
      Fresh.open(ArchivePath);
      Fresh.extractFunctionPathTraces(F, Out);
      C.add(Sw.elapsedMs());
    }

    Table.addRow({Data.Profile.Name, formatDouble(U.mean(), 2),
                  formatDouble(U.max(), 2), formatDouble(C.mean(), 3),
                  formatDouble(C.max(), 3),
                  formatDouble(U.mean() / std::max(C.mean(), 1e-9), 0)});
    std::remove(OwppPath.c_str());
    std::remove(ArchivePath.c_str());
  }
  Table.print();
  return Telemetry.finish(0);
}
