//===- bench/fig11_slicing.cpp - Paper Figures 10/11 -----------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Figures 10/11: the three Agrawal–Horgan dynamic slicing algorithms
// implemented over one timestamp-annotated dynamic CFG. The example
// program (14 statements), input N=3, X=(-4, 3, -2), slice on Z at the
// breakpoint (statement 14, timestamp 30). Paper results:
//   Approach 1 = all statements except 10
//   Approach 2 = all except 3 and 10
//   Approach 3 = all except 3, 8 and 10
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "slicing/DynamicSlicer.h"
#include "support/TablePrinter.h"

#include <string>

using namespace twpp;

namespace {

std::string setToString(const std::vector<BlockId> &Stmts) {
  std::string Out = "{";
  for (size_t I = 0; I < Stmts.size(); ++I)
    Out += (I ? "," : "") + std::to_string(Stmts[I]);
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchTelemetry Telemetry(Argc, Argv, "fig11_slicing");
  Figure10Program Fig = buildFigure10Program();
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(Fig.Trace);

  TablePrinter Program("Figure 10: example program and timestamps");
  Program.addRow({"Stmt", "Text", "Timestamps"});
  for (BlockId Id = 1; Id <= Fig.Program.stmtCount(); ++Id) {
    std::string Series;
    size_t Node = Cfg.nodeIndexOf(Id);
    if (Node != AnnotatedDynamicCfg::npos)
      for (int64_t V : Cfg.Nodes[Node].Times.encodeSigned())
        Series += (Series.empty() ? "" : " ") + std::to_string(V);
    Program.addRow({std::to_string(Id), Fig.Program.stmt(Id).Label,
                    Series});
  }
  Program.print();

  SliceResult A1 =
      sliceApproach1(Fig.Program, Cfg, Fig.Breakpoint, Fig.VarZ);
  SliceResult A2 =
      sliceApproach2(Fig.Program, Cfg, Fig.Breakpoint, Fig.VarZ);
  SliceResult A3 =
      sliceApproach3(Fig.Program, Cfg, Fig.Breakpoint, Fig.VarZ, 30);

  TablePrinter Slices(
      "Figure 11: dynamic slices of Z at the breakpoint (stmt 14, t=30)");
  Slices.addRow({"Approach", "Slice", "Queries", "Paper slice"});
  Slices.addRow({"1 (executed nodes)", setToString(A1.Stmts),
                 std::to_string(A1.QueriesGenerated),
                 "{1..14} - {10}"});
  Slices.addRow({"2 (executed edges)", setToString(A2.Stmts),
                 std::to_string(A2.QueriesGenerated),
                 "{1..14} - {3,10}"});
  Slices.addRow({"3 (exact instances)", setToString(A3.Stmts),
                 std::to_string(A3.QueriesGenerated),
                 "{1..14} - {3,8,10}"});
  Slices.print();
  return Telemetry.finish(0);
}
