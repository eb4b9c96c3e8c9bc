//===- dataflow/Frontier.h - Depth-by-depth backward frontier ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation loop shared by propagateBackward and
/// propagateBackwardInterprocedural. A pending query <T, n> at backward
/// depth d only spawns queries at depth d + 1, so the pending queries are
/// two flat frontiers: the one being drained and the next one, where a
/// per-node slot index merges every query that reaches the same
/// predecessor. The order in which a frontier drains does not change any
/// answer: a set that receives one contribution keeps it as is, and a set
/// that receives more is their union, packed canonically whatever the
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_DATAFLOW_FRONTIER_H
#define TWPP_DATAFLOW_FRONTIER_H

#include "dataflow/Query.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace twpp::detail {

/// Propagates <\p Times, node \p NodeIndex> backwards through \p Cfg and
/// counts the queries it generates into \p Result.
///
/// - AtEntry(Depth) runs when an entry at backward depth Depth holds
///   timestamp 1: the instance at original timestamp Depth + 1 reached the
///   function entry.
/// - Resolve(Pred, Depth, Meet) gets the instances Meet (in the current
///   coordinates: original = Meet + Depth + 1) that step from an entry at
///   depth Depth back into node Pred. It resolves what it can and returns
///   true to keep Meet, possibly narrowed, pending at (Pred, Depth + 1).
///
/// An empty \p Times or an out-of-range \p NodeIndex drains nothing.
template <typename EntryFn, typename ResolveFn>
void propagateFrontier(const AnnotatedDynamicCfg &Cfg, size_t NodeIndex,
                       const TimestampSet &Times, QueryResult &Result,
                       EntryFn &&AtEntry, ResolveFn &&Resolve) {
  if (Times.empty() || NodeIndex >= Cfg.Nodes.size())
    return;
  struct Entry {
    uint32_t Node;
    TimestampSet Times;
  };
  constexpr uint32_t NoSlot = UINT32_MAX;
  // Entries past a frontier's size are spare: their sets keep their
  // storage for the next depth.
  std::vector<Entry> Current, Next;
  size_t CurrentSize = 1, NextSize = 0;
  std::vector<uint32_t> SlotOf(Cfg.Nodes.size(), NoSlot);
  TimestampSet Previous, Meet, Merged;
  Current.push_back({static_cast<uint32_t>(NodeIndex), Times});
  Result.QueriesGenerated = 1;

  for (uint32_t Depth = 0; CurrentSize != 0; ++Depth) {
    for (size_t I = 0; I != CurrentSize; ++I) {
      const Entry &E = Current[I];
      if (E.Times.min() == 1)
        AtEntry(Depth);
      E.Times.shiftedInto(-1, Previous);
      if (Previous.empty())
        continue;
      for (uint32_t Pred : Cfg.Nodes[E.Node].Preds) {
        Previous.intersectInto(Cfg.Nodes[Pred].Times, Meet);
        if (Meet.empty() || !Resolve(Pred, Depth, Meet))
          continue;
        ++Result.QueriesGenerated;
        uint32_t &Slot = SlotOf[Pred];
        if (Slot != NoSlot) {
          Next[Slot].Times.uniteInto(Meet, Merged);
          std::swap(Next[Slot].Times, Merged);
          continue;
        }
        Slot = static_cast<uint32_t>(NextSize);
        if (NextSize == Next.size())
          Next.emplace_back();
        Next[NextSize].Node = Pred;
        Next[NextSize].Times = Meet;
        ++NextSize;
      }
    }
    for (size_t I = 0; I != NextSize; ++I)
      SlotOf[Next[I].Node] = NoSlot;
    std::swap(Current, Next);
    CurrentSize = NextSize;
    NextSize = 0;
  }
}

} // namespace twpp::detail

#endif // TWPP_DATAFLOW_FRONTIER_H
