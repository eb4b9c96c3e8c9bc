//===- bench/fig8_redundancy.cpp - Paper Figure 8 --------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Figure 8: trace redundancy — the cumulative percentage of all function
// calls attributable to functions with at most N unique path traces.
// Paper shape: for li/ijpeg/perl, 57-80% of calls come from functions
// with <= 5 unique traces; gcc and go need ~25 and ~50 unique traces to
// cover 50% of calls.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "fig8_redundancy");
  std::vector<uint64_t> Thresholds = {1, 2, 5, 10, 25, 50, 100, 200, 300};

  TablePrinter Table(
      "Figure 8: % of calls from functions with <= N unique path traces");
  std::vector<std::string> Header = {"Program"};
  for (uint64_t N : Thresholds)
    Header.push_back("N<=" + std::to_string(N));
  Table.addRow(Header);

  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    uint64_t TotalCalls = 0;
    for (const FunctionTraceTable &Fn : Data.Partitioned.Functions)
      TotalCalls += Fn.CallCount;

    std::vector<std::string> Row = {Data.Profile.Name};
    for (uint64_t N : Thresholds) {
      uint64_t Covered = 0;
      for (const FunctionTraceTable &Fn : Data.Partitioned.Functions)
        if (Fn.CallCount > 0 && Fn.UniqueTraces.size() <= N)
          Covered += Fn.CallCount;
      Row.push_back(formatDouble(100.0 * Covered / TotalCalls, 1));
    }
    Table.addRow(Row);
  }
  Table.print();
  return Telemetry.finish(0);
}
