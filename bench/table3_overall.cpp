//===- bench/table3_overall.cpp - Paper Table 3 ----------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 3: the complete compacted WPP — LZW-compressed DCG, compacted
// TWPP trace strings, DBB dictionaries — and the overall compaction
// factor against the uncompacted WPP. Paper shape: factors from 7 (go)
// to 64 (perl), increasing go < gcc < li < ijpeg < perl.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table3_overall");
  TablePrinter Table("Table 3: overall compaction factor");
  Table.addRow({"Program", "Compacted DCG (KB)", "Traces (KB)",
                "Dictionaries (KB)", "Total (KB)", "Compaction factor"});
  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    const StageSizes &S = Data.Stages;
    uint64_t Total =
        S.CompactedDcgBytes + S.TwppTraceBytes + S.DictionaryBytes;
    Table.addRow({Data.Profile.Name, kb(S.CompactedDcgBytes),
                  kb(S.TwppTraceBytes), kb(S.DictionaryBytes), kb(Total),
                  formatDouble(static_cast<double>(Data.Owpp.totalBytes()) /
                                   static_cast<double>(Total),
                               0)});
  }
  Table.print();
  return Telemetry.finish(0);
}
