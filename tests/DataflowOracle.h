//===- tests/DataflowOracle.h - Element-wise reference algebra --*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference implementations the run-wise code is checked against:
/// timestamp-set intersection and union that expand both operands, merge
/// the elements and repack them with fromSorted, and backward GEN-KILL
/// propagation over a std::map keyed by (depth, node) built on them. They
/// keep every fast path of the originals (`*this == Other` for intersect,
/// an empty operand returned as the other for unite), so the property
/// tests can require equality run for run, not just element for element.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_DATAFLOWORACLE_H
#define TWPP_TESTS_DATAFLOWORACLE_H

#include "dataflow/Query.h"

#include <algorithm>
#include <iterator>
#include <map>

namespace twpp::oracle {

inline TimestampSet intersect(const TimestampSet &A, const TimestampSet &B) {
  if (A.empty() || B.empty())
    return TimestampSet();
  if (A == B)
    return A;
  std::vector<Timestamp> EA = A.toVector(), EB = B.toVector(), Meet;
  std::set_intersection(EA.begin(), EA.end(), EB.begin(), EB.end(),
                        std::back_inserter(Meet));
  return TimestampSet::fromSorted(Meet);
}

inline TimestampSet unite(const TimestampSet &A, const TimestampSet &B) {
  if (A.empty())
    return B;
  if (B.empty())
    return A;
  std::vector<Timestamp> EA = A.toVector(), EB = B.toVector(), Join;
  std::set_union(EA.begin(), EA.end(), EB.begin(), EB.end(),
                 std::back_inserter(Join));
  return TimestampSet::fromSorted(Join);
}

/// Backward propagation of <Times, node NodeIndex>, one std::map entry
/// per pending (node, depth) pair, chain effects re-evaluated per step.
inline QueryResult propagateBackward(const AnnotatedDynamicCfg &Cfg,
                                     size_t NodeIndex,
                                     const TimestampSet &Times,
                                     const EffectFn &Effect) {
  QueryResult Result;
  if (Times.empty() || NodeIndex >= Cfg.Nodes.size())
    return Result;
  std::map<std::pair<uint32_t, size_t>, TimestampSet> Pending;
  Pending[{0, NodeIndex}] = Times;
  Result.QueriesGenerated = 1;
  const TimestampSet One = TimestampSet::fromRun(1, 1, 1);

  while (!Pending.empty()) {
    auto It = Pending.begin();
    auto [Depth, Node] = It->first;
    TimestampSet Current = std::move(It->second);
    Pending.erase(It);

    TimestampSet Dropped = intersect(Current, One);
    if (!Dropped.empty())
      Result.AtEntry = unite(Result.AtEntry, Dropped.shifted(Depth));

    TimestampSet Previous = Current.shifted(-1);
    if (Previous.empty())
      continue;
    for (uint32_t PredIndex : Cfg.Nodes[Node].Preds) {
      const AnnotatedNode &Pred = Cfg.Nodes[PredIndex];
      TimestampSet AtPred = intersect(Previous, Pred.Times);
      if (AtPred.empty())
        continue;
      TimestampSet Origin = AtPred.shifted(static_cast<int64_t>(Depth) + 1);
      switch (chainEffect(Pred.StaticBlocks, Effect)) {
      case BlockEffect::Gen:
        Result.True = unite(Result.True, Origin);
        break;
      case BlockEffect::Kill:
        Result.False = unite(Result.False, Origin);
        break;
      case BlockEffect::Transparent: {
        TimestampSet &Slot = Pending[{Depth + 1, PredIndex}];
        Slot = unite(Slot, AtPred);
        ++Result.QueriesGenerated;
        break;
      }
      }
    }
  }
  return Result;
}

} // namespace twpp::oracle

#endif // TWPP_TESTS_DATAFLOWORACLE_H
