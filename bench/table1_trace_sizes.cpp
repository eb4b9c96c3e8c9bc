//===- bench/table1_trace_sizes.cpp - Paper Table 1 ------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 1: sizes of the sample input traces (the uncompacted WPPs): the
// dynamic call graph, the per-call path traces, and the total. The paper
// reports MB against full SPECint95 runs; the synthetic workloads are
// ~100x smaller, so KB here — the split between DCG and traces is the
// comparable quantity.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table1_trace_sizes");
  TablePrinter Table("Table 1: sample input traces (uncompacted WPP)");
  Table.addRow({"Program", "DCG (KB)", "WPP traces (KB)", "Total (KB)",
                "Events", "Calls"});
  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    Table.addRow({Data.Profile.Name, kb(Data.Owpp.DcgBytes),
                  kb(Data.Owpp.TraceBytes), kb(Data.Owpp.totalBytes()),
                  std::to_string(Data.Trace.Events.size()),
                  std::to_string(Data.Trace.callCount())});
  }
  Table.print();
  return Telemetry.finish(0);
}
