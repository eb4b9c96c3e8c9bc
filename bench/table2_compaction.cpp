//===- bench/table2_compaction.cpp - Paper Table 2 -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 2: WPP trace size after each compacting transformation —
// redundant path trace removal, DBB dictionary creation, conversion to
// compacted TWPP — with the per-stage reduction factor in parentheses and
// the overall OWPP/CTWPP ratio. Paper shape: redundancy removal is the
// big win (x5.66-9.5); dictionaries add x1.35-4.24; TWPP shrinks traces
// further for four of five programs and slightly grows 099.go.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace twpp;
using namespace twpp::bench;

namespace {

std::string withFactor(uint64_t Bytes, uint64_t PrevBytes) {
  double Factor = Bytes == 0
                      ? 0.0
                      : static_cast<double>(PrevBytes) /
                            static_cast<double>(Bytes);
  return kb(Bytes) + " (" + formatFactor(Factor) + ")";
}

} // namespace

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table2_compaction");
  TablePrinter Table(
      "Table 2: WPP trace compaction by transformation (KB, factor vs "
      "previous stage)");
  Table.addRow({"Program", "OWPP traces", "Redundancy removal",
                "Dictionary creation", "Compacted TWPP", "OWPP/CTWPP"});
  double TotalCompactionMs = 0;
  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    const StageSizes &S = Data.Stages;
    TotalCompactionMs += Data.CompactionMs;
    Table.addRow(
        {Data.Profile.Name, kb(S.OwppTraceBytes),
         withFactor(S.DedupedTraceBytes, S.OwppTraceBytes),
         withFactor(S.DbbTraceBytes, S.DedupedTraceBytes),
         withFactor(S.TwppTraceBytes, S.DbbTraceBytes),
         formatFactor(static_cast<double>(S.OwppTraceBytes) /
                      static_cast<double>(S.TwppTraceBytes))});
  }
  Table.print();
  std::fprintf(stderr, "[bench] end-to-end compaction wall time: %.1f ms\n",
               TotalCompactionMs);
  return Telemetry.finish(0);
}
