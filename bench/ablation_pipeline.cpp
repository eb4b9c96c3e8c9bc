//===- bench/ablation_pipeline.cpp - Stage ablation study ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Ablation over the design choices of Section 2: what each stage of the
// compaction pipeline buys, including a TWPP variant with the arithmetic
// series codec disabled (every timestamp stored individually) — the
// series are where the timestamped form earns its keep.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace twpp;
using namespace twpp::bench;

namespace {

/// TWPP trace-string bytes if every timestamp were stored as a singleton
/// entry (series compaction off).
uint64_t twppBytesWithoutSeries(const TwppWpp &Wpp) {
  uint64_t Bytes = 0;
  for (const TwppFunctionTable &Fn : Wpp.Functions) {
    for (const TwppTrace &Trace : Fn.TraceStrings) {
      Bytes += varintSize(Trace.Length) + varintSize(Trace.Blocks.size());
      for (const auto &[Block, Set] : Trace.Blocks) {
        Bytes += varintSize(Block);
        Bytes += varintSize(Set.count());
        for (Timestamp T : Set.toVector())
          Bytes += signedVarintSize(-static_cast<int64_t>(T));
      }
    }
  }
  return Bytes;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "ablation_pipeline");
  TablePrinter Table(
      "Ablation: trace bytes (KB) under partial pipelines");
  Table.addRow({"Program", "No compaction", "+dedup", "+DBB dict",
                "+TWPP no-series", "+TWPP series (full)"});
  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    const StageSizes &S = Data.Stages;
    uint64_t NoSeries = twppBytesWithoutSeries(Data.Twpp);
    Table.addRow({Data.Profile.Name, kb(S.OwppTraceBytes),
                  kb(S.DedupedTraceBytes),
                  kb(S.DbbTraceBytes + S.DictionaryBytes),
                  kb(NoSeries + S.DictionaryBytes),
                  kb(S.TwppTraceBytes + S.DictionaryBytes)});
  }
  Table.print();
  return Telemetry.finish(0);
}
