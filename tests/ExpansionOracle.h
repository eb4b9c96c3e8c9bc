//===- tests/ExpansionOracle.h - Per-element trace expansion ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace expansion the library used before the one-pass walker, kept
/// as a check: every timestamp is marked in a vector<bool> and written to
/// a block sequence, then every head of the sequence is looked up with
/// findChain and appended. Slow, per element, and obviously right; the
/// one-pass expansion (expandPathTrace, extractFunctionPathTraces) must
/// agree with it on every table, tiled or not.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_EXPANSIONORACLE_H
#define TWPP_TESTS_EXPANSIONORACLE_H

#include "wpp/Twpp.h"

#include <vector>

namespace twpp::oracle {

/// The block sequence of \p Trace. \returns false when its sets do not
/// tile 1..Length.
inline bool blockSequence(const TwppTrace &Trace,
                          std::vector<BlockId> &Sequence) {
  Sequence.assign(Trace.Length, 0);
  std::vector<bool> Seen(Trace.Length, false);
  for (const auto &[Block, Set] : Trace.Blocks) {
    for (const SeriesRun &Run : Set.runs()) {
      for (uint64_t T = Run.Lo; T <= Run.Hi; T += Run.Step) {
        if (T == 0 || T > Trace.Length || Seen[T - 1])
          return false;
        Seen[T - 1] = true;
        Sequence[T - 1] = Block;
      }
    }
  }
  for (bool Filled : Seen)
    if (!Filled)
      return false;
  return true;
}

/// \p String expanded under \p Dict, one findChain per head.
inline bool expandTrace(const TwppTrace &String, const DbbDictionary &Dict,
                        PathTrace &Out) {
  Out.clear();
  std::vector<BlockId> Sequence;
  if (!blockSequence(String, Sequence))
    return false;
  for (BlockId Head : Sequence) {
    if (const std::vector<BlockId> *Chain = Dict.findChain(Head))
      Out.insert(Out.end(), Chain->begin(), Chain->end());
    else
      Out.push_back(Head);
  }
  return true;
}

/// Every unique trace of \p Table; false, with \p Out empty, when one does
/// not tile.
inline bool expandTable(const TwppFunctionTable &Table,
                        FunctionPathTraces &Out) {
  Out = FunctionPathTraces();
  for (auto [StringIdx, DictIdx] : Table.Traces) {
    PathTrace Expanded;
    if (!expandTrace(Table.TraceStrings[StringIdx],
                     Table.Dictionaries[DictIdx], Expanded)) {
      Out = FunctionPathTraces();
      return false;
    }
    Out.Traces.push_back(std::move(Expanded));
  }
  Out.UseCounts = Table.UseCounts;
  Out.CallCount = Table.CallCount;
  return true;
}

} // namespace twpp::oracle

#endif // TWPP_TESTS_EXPANSIONORACLE_H
