//===- bench/table5_sequitur_vs_twpp.cpp - Paper Table 5 -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 5: the space/time trade-off against Larus's Sequitur-compressed
// WPP. The grammar is smaller (paper: x3.92 on average) but extracting
// one function's traces requires reading and processing the whole
// grammar (paper: 10s-1000s of ms), while the TWPP archive answers from
// its index in ~milliseconds (paper: 89-553x faster).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "sequitur/Sequitur.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"

#include <algorithm>
#include <cstdio>

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table5_sequitur_vs_twpp");
  TablePrinter Table(
      "Table 5: compacted sizes and per-function extraction times, "
      "Sequitur (Larus) vs TWPP archive");
  Table.addRow({"Program", "Sequitur (KB)", "TWPP (KB)", "Seq read (ms)",
                "Seq process (ms)", "Seq total (ms)", "TWPP (ms)",
                "Access ratio"});

  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    std::fprintf(stderr, "[bench] sequitur over %zu events...\n",
                 Data.Trace.Events.size());
    FlatGrammar Grammar = buildSequiturGrammar(Data.Trace);

    std::string GrammarPath =
        "/tmp/twpp_bench_" + Data.Profile.Name + ".seq";
    std::string ArchivePath =
        "/tmp/twpp_bench_" + Data.Profile.Name + ".twpp";
    if (!writeGrammarFile(GrammarPath, Grammar) ||
        !writeArchiveFile(ArchivePath, Data.Twpp)) {
      std::fprintf(stderr, "failed to write files\n");
      return 1;
    }

    // Sample functions for the timing average.
    std::vector<FunctionId> Functions;
    for (FunctionId F = 0; F < Data.Partitioned.Functions.size(); ++F)
      if (Data.Partitioned.Functions[F].CallCount > 0)
        Functions.push_back(F);
    std::vector<FunctionId> Sample;
    for (size_t I = 0; I < Functions.size() && Sample.size() < 6;
         I += std::max<size_t>(1, Functions.size() / 6))
      Sample.push_back(Functions[I]);

    RunningStats Read, Process, TwppTime;
    for (FunctionId F : Sample) {
      Stopwatch Sw;
      FlatGrammar Loaded;
      readGrammarFile(GrammarPath, Loaded);
      Read.add(Sw.elapsedMs());
      Sw.reset();
      std::vector<std::vector<BlockId>> Traces;
      extractFunctionTracesFromGrammar(Loaded, F, Traces);
      Process.add(Sw.elapsedMs());

      Sw.reset();
      ArchiveReader Reader;
      Reader.open(ArchivePath);
      FunctionPathTraces Out;
      Reader.extractFunctionPathTraces(F, Out);
      TwppTime.add(Sw.elapsedMs());
    }

    uint64_t SequiturBytes = fileSize(GrammarPath).value_or(0);
    uint64_t ArchiveBytes = fileSize(ArchivePath).value_or(0);
    double SeqTotal = Read.mean() + Process.mean();
    Table.addRow({Data.Profile.Name, kb(SequiturBytes), kb(ArchiveBytes),
                  formatDouble(Read.mean(), 1),
                  formatDouble(Process.mean(), 1),
                  formatDouble(SeqTotal, 1),
                  formatDouble(TwppTime.mean(), 3),
                  formatFactor(SeqTotal /
                               std::max(TwppTime.mean(), 1e-9))});
    std::remove(GrammarPath.c_str());
    std::remove(ArchivePath.c_str());
  }
  Table.print();
  return Telemetry.finish(0);
}
