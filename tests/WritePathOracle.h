//===- tests/WritePathOracle.h - Sort-based write-path kernels --*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-path kernels the library used before the hashed dense index,
/// kept as a check. Each trace is densified by sorting a copy of it, one
/// lower_bound per element and a sort of every edge; the timestamped form
/// gathers each block's timestamps in a std::map. O(n log n), and plainly
/// right; compactWithDbbs, buildDynamicCfg and twppFromBlockSequence must
/// agree with them exactly on every trace.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_WRITEPATHORACLE_H
#define TWPP_TESTS_WRITEPATHORACLE_H

#include "wpp/Dbb.h"
#include "wpp/Twpp.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

namespace twpp::oracle {

/// A path trace over dense block indices, numbered by sorting.
struct SortedDenseTrace {
  /// Distinct block ids, sorted ascending.
  std::vector<BlockId> Blocks;
  /// Index[I] is the position of Trace[I] in Blocks.
  std::vector<uint32_t> Index;
  /// Each observed edge as (from index << 32 | to index), ascending.
  std::vector<uint64_t> Edges;
};

inline SortedDenseTrace densify(const PathTrace &Trace) {
  SortedDenseTrace D;
  D.Blocks = Trace;
  std::sort(D.Blocks.begin(), D.Blocks.end());
  D.Blocks.erase(std::unique(D.Blocks.begin(), D.Blocks.end()),
                 D.Blocks.end());
  D.Index.resize(Trace.size());
  for (size_t I = 0; I != Trace.size(); ++I)
    D.Index[I] = static_cast<uint32_t>(
        std::lower_bound(D.Blocks.begin(), D.Blocks.end(), Trace[I]) -
        D.Blocks.begin());
  for (size_t I = 0; I + 1 < Trace.size(); ++I)
    D.Edges.push_back(static_cast<uint64_t>(D.Index[I]) << 32 |
                      D.Index[I + 1]);
  std::sort(D.Edges.begin(), D.Edges.end());
  D.Edges.erase(std::unique(D.Edges.begin(), D.Edges.end()), D.Edges.end());
  return D;
}

inline uint32_t edgeFrom(uint64_t Edge) {
  return static_cast<uint32_t>(Edge >> 32);
}
inline uint32_t edgeTo(uint64_t Edge) { return static_cast<uint32_t>(Edge); }

inline DynamicCfg buildDynamicCfg(const PathTrace &Trace) {
  DynamicCfg Cfg;
  if (Trace.empty())
    return Cfg;
  SortedDenseTrace D = densify(Trace);
  size_t N = D.Blocks.size();
  Cfg.Successors.resize(N);
  Cfg.Predecessors.resize(N);
  Cfg.IsEntry.assign(N, false);
  Cfg.IsExit.assign(N, false);
  Cfg.IsEntry[D.Index.front()] = true;
  Cfg.IsExit[D.Index.back()] = true;
  for (uint64_t Edge : D.Edges) {
    Cfg.Successors[edgeFrom(Edge)].push_back(D.Blocks[edgeTo(Edge)]);
    Cfg.Predecessors[edgeTo(Edge)].push_back(D.Blocks[edgeFrom(Edge)]);
  }
  Cfg.Blocks = std::move(D.Blocks);
  return Cfg;
}

inline CompactedTrace compactWithDbbs(const PathTrace &Trace) {
  CompactedTrace Result;
  if (Trace.size() < 2) {
    Result.Blocks = Trace;
    return Result;
  }
  constexpr uint32_t None = UINT32_MAX;
  SortedDenseTrace D = densify(Trace);
  size_t N = D.Blocks.size();
  std::vector<uint32_t> OutEdges(N, 0), InEdges(N, 0);
  std::vector<uint32_t> Succ(N, None), Pred(N, None);
  for (uint64_t Edge : D.Edges) {
    uint32_t From = edgeFrom(Edge), To = edgeTo(Edge);
    ++OutEdges[From];
    ++InEdges[To];
    Succ[From] = To;
    Pred[To] = From;
  }
  uint32_t EntryIndex = D.Index.front(), ExitIndex = D.Index.back();
  auto OutDegree = [&](uint32_t I) {
    return OutEdges[I] + (I == ExitIndex ? 1 : 0);
  };
  auto InDegree = [&](uint32_t I) {
    return InEdges[I] + (I == EntryIndex ? 1 : 0);
  };
  std::vector<bool> Interior(N, false);
  for (uint32_t I = 0; I != N; ++I)
    Interior[I] =
        InDegree(I) == 1 && InEdges[I] == 1 && OutDegree(Pred[I]) == 1;
  std::vector<uint32_t> NextInChain(N, None);
  for (uint32_t I = 0; I != N; ++I)
    if (OutDegree(I) == 1 && OutEdges[I] == 1 && Interior[Succ[I]])
      NextInChain[I] = Succ[I];
  DbbDictionary &Dict = Result.Dictionary;
  std::vector<uint32_t> ChainOf(N, None);
  for (uint32_t I = 0; I != N; ++I) {
    if (Interior[I] || NextInChain[I] == None)
      continue;
    std::vector<BlockId> Chain;
    for (uint32_t Walk = I; Walk != None; Walk = NextInChain[Walk])
      Chain.push_back(D.Blocks[Walk]);
    ChainOf[I] = static_cast<uint32_t>(Dict.Chains.size());
    Dict.Chains.push_back(std::move(Chain));
  }
  size_t Pos = 0;
  while (Pos < Trace.size()) {
    uint32_t ChainIndex = ChainOf[D.Index[Pos]];
    Result.Blocks.push_back(Trace[Pos]);
    Pos += ChainIndex == None ? 1 : Dict.Chains[ChainIndex].size();
  }
  return Result;
}

inline TwppTrace twppFromBlockSequence(const std::vector<BlockId> &Sequence) {
  TwppTrace Trace;
  Trace.Length = static_cast<uint32_t>(Sequence.size());
  std::map<BlockId, std::vector<Timestamp>> Lists;
  for (uint32_t I = 0; I < Sequence.size(); ++I)
    Lists[Sequence[I]].push_back(I + 1);
  for (auto &[Block, List] : Lists)
    Trace.Blocks.emplace_back(Block, TimestampSet::fromSorted(List));
  return Trace;
}

} // namespace twpp::oracle

#endif // TWPP_TESTS_WRITEPATHORACLE_H
