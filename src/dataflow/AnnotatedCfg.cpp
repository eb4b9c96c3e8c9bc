//===- dataflow/AnnotatedCfg.cpp - Timestamp-annotated dynamic CFG --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnnotatedCfg.h"

#include <algorithm>

using namespace twpp;

size_t AnnotatedDynamicCfg::nodeIndexOf(BlockId Head) const {
  auto It = std::lower_bound(Nodes.begin(), Nodes.end(), Head,
                             [](const AnnotatedNode &Node, BlockId Key) {
                               return Node.Head < Key;
                             });
  if (It == Nodes.end() || It->Head != Head)
    return npos;
  return static_cast<size_t>(It - Nodes.begin());
}

size_t AnnotatedDynamicCfg::nodeAt(Timestamp T) const {
  if (T == 0 || T > Length)
    return npos;
  for (size_t I = 0; I < Nodes.size(); ++I)
    if (Nodes[I].Times.contains(T))
      return I;
  return npos;
}

uint64_t AnnotatedDynamicCfg::edgeCount() const {
  uint64_t Count = 0;
  for (const AnnotatedNode &Node : Nodes)
    Count += Node.Succs.size();
  return Count;
}

AnnotatedDynamicCfg twpp::buildAnnotatedCfg(const TwppTrace &Trace,
                                            const DbbDictionary &Dictionary) {
  AnnotatedDynamicCfg Cfg;
  Cfg.Length = Trace.Length;
  Cfg.Nodes.reserve(Trace.Blocks.size());
  for (const auto &[Head, Times] : Trace.Blocks) {
    AnnotatedNode Node;
    Node.Head = Head;
    Node.Times = Times;
    appendExpansion(Dictionary, Head, Node.StaticBlocks);
    Cfg.Nodes.push_back(std::move(Node));
  }

  // Adjacency comes from the materialized time sequence. Sets that do not
  // tile 1..Length (a crafted archive) have no sequence to follow: the
  // nodes stay, without edges, for the verifier to name the overlap.
  std::vector<BlockId> Sequence;
  if (!blockSequenceFromTwpp(Trace, Sequence))
    return Cfg;
  for (size_t I = 0; I + 1 < Sequence.size(); ++I) {
    // A node can only be missing when the blocks are not sorted by id,
    // which the archive's delta coding allows through wraparound.
    size_t From = Cfg.nodeIndexOf(Sequence[I]);
    size_t To = Cfg.nodeIndexOf(Sequence[I + 1]);
    if (From == AnnotatedDynamicCfg::npos || To == AnnotatedDynamicCfg::npos)
      continue;
    Cfg.Nodes[From].Succs.push_back(static_cast<uint32_t>(To));
    Cfg.Nodes[To].Preds.push_back(static_cast<uint32_t>(From));
  }
  for (AnnotatedNode &Node : Cfg.Nodes) {
    auto Dedupe = [](std::vector<uint32_t> &List) {
      std::sort(List.begin(), List.end());
      List.erase(std::unique(List.begin(), List.end()), List.end());
    };
    Dedupe(Node.Preds);
    Dedupe(Node.Succs);
  }
  return Cfg;
}

AnnotatedDynamicCfg twpp::buildAnnotatedCfgFromSequence(
    const std::vector<BlockId> &Sequence) {
  return buildAnnotatedCfg(twppFromBlockSequence(Sequence), DbbDictionary());
}
