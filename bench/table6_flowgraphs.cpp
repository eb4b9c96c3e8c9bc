//===- bench/table6_flowgraphs.cpp - Paper Table 6 -------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Table 6: the cost model of profile-limited analysis — cumulative static
// flow graph size vs cumulative dynamic flow graph size (one annotated
// dynamic CFG per unique path trace of each function), plus the average
// timestamp vector size per dynamic node, before (raw element count) and
// after series compaction. Paper shape: dynamic graphs have far fewer
// nodes/edges than static ones, and compaction shrinks the vectors by a
// large factor (e.g. perl 616.8 -> 3.9).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "dataflow/AnnotatedCfg.h"

using namespace twpp;
using namespace twpp::bench;

int main(int Argc, char **Argv) {
  BenchTelemetry Telemetry(Argc, Argv, "table6_flowgraphs");
  TablePrinter Table(
      "Table 6: static vs dynamic flow graph sizes; avg timestamp vector "
      "entries per node (before compaction in parentheses)");
  Table.addRow({"Program", "Static N", "Static E", "Dynamic N", "Dynamic E",
                "avg dyn N/graph", "avg static N/fn",
                "avg |T| compacted (raw)"});

  for (const ProfileData &Data : buildAllProfiles(&Telemetry)) {
    CfgStats Static = Data.Program.staticStats();

    uint64_t DynNodes = 0, DynEdges = 0, Graphs = 0;
    uint64_t CompactedEntries = 0, RawEntries = 0;
    for (const TwppFunctionTable &Fn : Data.Twpp.Functions) {
      for (const auto &[StringIdx, DictIdx] : Fn.Traces) {
        AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(
            Fn.TraceStrings[StringIdx], Fn.Dictionaries[DictIdx]);
        ++Graphs;
        DynNodes += Cfg.Nodes.size();
        DynEdges += Cfg.edgeCount();
        for (const AnnotatedNode &Node : Cfg.Nodes) {
          CompactedEntries += Node.Times.encodedValueCount();
          RawEntries += Node.Times.count();
        }
      }
    }

    double AvgCompacted =
        DynNodes == 0 ? 0.0
                      : static_cast<double>(CompactedEntries) / DynNodes;
    double AvgRaw =
        DynNodes == 0 ? 0.0 : static_cast<double>(RawEntries) / DynNodes;
    Table.addRow(
        {Data.Profile.Name, std::to_string(Static.Nodes),
         std::to_string(Static.Edges), std::to_string(DynNodes),
         std::to_string(DynEdges),
         formatDouble(Graphs == 0 ? 0.0
                                  : static_cast<double>(DynNodes) / Graphs,
                      1),
         formatDouble(static_cast<double>(Static.Nodes) /
                          Data.Program.Functions.size(),
                      1),
         formatDouble(AvgCompacted, 1) + " (" + formatDouble(AvgRaw, 1) +
             ")"});
  }
  Table.print();
  return Telemetry.finish(0);
}
