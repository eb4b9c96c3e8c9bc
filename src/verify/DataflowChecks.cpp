//===- verify/DataflowChecks.cpp - Dataflow-family checks -----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/DataflowChecks.h"

#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"

#include <algorithm>
#include <iterator>
#include <string>

using namespace twpp;
using namespace twpp::verify;

namespace {

void checkBlockList(const std::vector<BlockId> &Blocks, const Function &F,
                    const std::string &Loc, const char *SetName,
                    DiagnosticEngine &Engine) {
  BlockId Prev = 0;
  for (BlockId Block : Blocks) {
    if (Block < 1 || Block > F.blockCount())
      Engine.report(checks::DataflowFactBlocks, Severity::Error,
                    std::string(SetName) + " set names block " +
                        std::to_string(Block) + " but " + F.Name +
                        " has blocks 1.." + std::to_string(F.blockCount()),
                    Loc);
    if (Block <= Prev)
      Engine.report(checks::DataflowFactBlocks, Severity::Error,
                    std::string(SetName) +
                        " set not sorted strictly ascending at block " +
                        std::to_string(Block),
                    Loc);
    Prev = Block;
  }
}

} // namespace

void verify::runFactSpecChecks(const BlockFactSpec &Spec, const Function &F,
                               const std::string &FactName,
                               DiagnosticEngine &Engine) {
  const std::string Loc = F.Name + " / " + FactName;
  checkBlockList(Spec.GenBlocks, F, Loc, "GEN", Engine);
  checkBlockList(Spec.KillBlocks, F, Loc, "KILL", Engine);
  std::vector<BlockId> Both;
  std::set_intersection(Spec.GenBlocks.begin(), Spec.GenBlocks.end(),
                        Spec.KillBlocks.begin(), Spec.KillBlocks.end(),
                        std::back_inserter(Both));
  for (BlockId Block : Both)
    Engine.report(checks::DataflowFactBlocks, Severity::Error,
                  "block " + std::to_string(Block) +
                      " appears in both GEN and KILL (specs resolve the "
                      "overlap before emitting block sets)",
                  Loc);
}

void verify::runAnnotatedCfgChecks(const AnnotatedDynamicCfg &Cfg,
                                   const std::string &Loc,
                                   DiagnosticEngine &Engine) {
  const size_t N = Cfg.Nodes.size();
  uint64_t Total = 0;
  BlockId PrevHead = 0;
  bool Sound = true;
  for (size_t I = 0; I < N; ++I) {
    const AnnotatedNode &Node = Cfg.Nodes[I];
    std::string NodeLoc = Loc + " / node " + std::to_string(I);
    if (I > 0 && Node.Head <= PrevHead) {
      Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                    "nodes not sorted strictly by DBB head", NodeLoc);
      Sound = false;
    }
    PrevHead = Node.Head;
    if (Node.StaticBlocks.empty() || Node.StaticBlocks.front() != Node.Head) {
      Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                    "static block list does not start with the DBB head",
                    NodeLoc);
      Sound = false;
    }
    runTimestampSetChecks(Node.Times, NodeLoc, Engine);
    Total += Node.Times.count();
    for (uint32_t Pred : Node.Preds)
      if (Pred >= N) {
        Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                      "predecessor index " + std::to_string(Pred) +
                          " out of range",
                      NodeLoc);
        Sound = false;
      } else if (std::find(Cfg.Nodes[Pred].Succs.begin(),
                           Cfg.Nodes[Pred].Succs.end(),
                           static_cast<uint32_t>(I)) ==
                 Cfg.Nodes[Pred].Succs.end()) {
        Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                      "edge from node " + std::to_string(Pred) +
                          " recorded as predecessor but missing from its "
                          "successor list",
                      NodeLoc);
        Sound = false;
      }
    for (uint32_t Succ : Node.Succs)
      if (Succ >= N) {
        Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                      "successor index " + std::to_string(Succ) +
                          " out of range",
                      NodeLoc);
        Sound = false;
      } else if (std::find(Cfg.Nodes[Succ].Preds.begin(),
                           Cfg.Nodes[Succ].Preds.end(),
                           static_cast<uint32_t>(I)) ==
                 Cfg.Nodes[Succ].Preds.end()) {
        Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                      "edge to node " + std::to_string(Succ) +
                          " recorded as successor but missing from its "
                          "predecessor list",
                      NodeLoc);
        Sound = false;
      }
  }
  if (Total != Cfg.Length) {
    Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                  "node annotations hold " + std::to_string(Total) +
                      " timestamps but the graph declares length " +
                      std::to_string(Cfg.Length),
                  Loc);
    return;
  }
  if (!Sound)
    return;
  // Counts match; verify the node annotations tile 1..Length exactly by
  // checking disjointness pairwise. Each intersection sweeps the two run
  // lists without expanding them, and dynamic CFGs have few distinct
  // DBBs, so the quadratic pair count stays cheap.
  for (size_t A = 0; A < N; ++A)
    for (size_t B = A + 1; B < N; ++B) {
      TimestampSet Overlap = Cfg.Nodes[A].Times.intersect(Cfg.Nodes[B].Times);
      if (!Overlap.empty())
        Engine.report(checks::DataflowAnnotationPartition, Severity::Error,
                      "nodes " + std::to_string(A) + " and " +
                          std::to_string(B) +
                          " both claim timestamp " +
                          std::to_string(Overlap.min()),
                      Loc);
    }
}

void verify::runAnnotationSourceChecks(const AnnotatedDynamicCfg &Cfg,
                                       const TwppTrace &Trace,
                                       const DbbDictionary &Dictionary,
                                       const std::string &Loc,
                                       DiagnosticEngine &Engine) {
  if (!Engine.checkEnabled(checks::DataflowAnnotationSubset))
    return;
  if (Cfg.Length != Trace.Length)
    Engine.report(checks::DataflowAnnotationSubset, Severity::Error,
                  "annotated CFG declares length " +
                      std::to_string(Cfg.Length) +
                      " but the owning trace has " +
                      std::to_string(Trace.Length),
                  Loc);
  for (size_t I = 0; I < Cfg.Nodes.size(); ++I) {
    const AnnotatedNode &Node = Cfg.Nodes[I];
    std::string NodeLoc = Loc + " / node " + std::to_string(I);
    const TimestampSet *Source = Trace.timestampsOf(Node.Head);
    if (!Source) {
      Engine.report(checks::DataflowAnnotationSubset, Severity::Error,
                    "DBB head " + std::to_string(Node.Head) +
                        " does not appear in the owning trace",
                    NodeLoc);
      continue;
    }
    if (!(Node.Times == *Source))
      Engine.report(checks::DataflowAnnotationSubset, Severity::Error,
                    "node annotation is not the owning trace's timestamp "
                    "set for block " +
                        std::to_string(Node.Head) +
                        " (annotation holds " +
                        std::to_string(Node.Times.count()) +
                        " timestamps, trace holds " +
                        std::to_string(Source->count()) + ")",
                    NodeLoc);
    const std::vector<BlockId> *Chain = Dictionary.findChain(Node.Head);
    const std::vector<BlockId> Expected =
        Chain ? *Chain : std::vector<BlockId>{Node.Head};
    if (Node.StaticBlocks != Expected)
      Engine.report(checks::DataflowAnnotationSubset, Severity::Error,
                    "node's static block list does not match the "
                    "dictionary chain for head " +
                        std::to_string(Node.Head),
                    NodeLoc);
  }
  // Every trace block must be represented in the CFG.
  for (const auto &[Block, Set] : Trace.Blocks)
    if (Cfg.nodeIndexOf(Block) == AnnotatedDynamicCfg::npos)
      Engine.report(checks::DataflowAnnotationSubset, Severity::Error,
                    "trace block " + std::to_string(Block) +
                        " has no node in the annotated CFG",
                    Loc);
}
