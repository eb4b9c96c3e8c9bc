//===- bench/ablation_lzw.cpp - DCG compression ablation -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Ablation for the paper's choice of LZW over the serialized dynamic call
// graph ("Compacting the DCG", Section 2): raw serialized size vs
// LZW-compressed size per benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/LZW.h"

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "ablation_lzw");
  TablePrinter Table("Ablation: dynamic call graph storage");
  Table.addRow({"Program", "Calls", "Raw DCG (KB)", "LZW DCG (KB)",
                "Ratio"});
  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    std::vector<uint8_t> Raw = encodeDcg(Data.Twpp.Dcg);
    std::vector<uint8_t> Compressed = lzwCompress(Raw);
    Table.addRow({Data.Profile.Name,
                  std::to_string(Data.Trace.callCount()),
                  kb(Raw.size()), kb(Compressed.size()),
                  formatFactor(static_cast<double>(Raw.size()) /
                               static_cast<double>(Compressed.size()))});
  }
  Table.print();
  return Telemetry.finish(0);
}
