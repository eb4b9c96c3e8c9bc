//===- wpp/Dbb.cpp - Dynamic basic block dictionaries ---------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Dbb.h"

#include "obs/Metrics.h"
#include "obs/Names.h"

#include <algorithm>
#include <cassert>

using namespace twpp;

size_t DynamicCfg::indexOf(BlockId Block) const {
  auto It = std::lower_bound(Blocks.begin(), Blocks.end(), Block);
  if (It == Blocks.end() || *It != Block)
    return npos;
  return static_cast<size_t>(It - Blocks.begin());
}

uint64_t DynamicCfg::edgeCount() const {
  uint64_t Count = 0;
  for (const auto &Succs : Successors)
    Count += Succs.size();
  return Count;
}

namespace {

/// A path trace over dense block indices, the one derivation both the
/// dynamic CFG and DBB chaining read: the distinct blocks, each trace
/// element's index into them, and the sorted, deduplicated edge list.
struct DenseTrace {
  /// Distinct block ids, sorted ascending.
  std::vector<BlockId> Blocks;
  /// Index[I] is the position of Trace[I] in Blocks.
  std::vector<uint32_t> Index;
  /// Each observed edge as (from index << 32 | to index), ascending.
  std::vector<uint64_t> Edges;
};

DenseTrace densify(const PathTrace &Trace) {
  DenseTrace D;
  D.Blocks = Trace;
  std::sort(D.Blocks.begin(), D.Blocks.end());
  D.Blocks.erase(std::unique(D.Blocks.begin(), D.Blocks.end()),
                 D.Blocks.end());
  D.Index.resize(Trace.size());
  for (size_t I = 0; I != Trace.size(); ++I)
    D.Index[I] = static_cast<uint32_t>(
        std::lower_bound(D.Blocks.begin(), D.Blocks.end(), Trace[I]) -
        D.Blocks.begin());
  D.Edges.resize(Trace.size() - 1);
  for (size_t I = 0; I + 1 < Trace.size(); ++I)
    D.Edges[I] = static_cast<uint64_t>(D.Index[I]) << 32 | D.Index[I + 1];
  std::sort(D.Edges.begin(), D.Edges.end());
  D.Edges.erase(std::unique(D.Edges.begin(), D.Edges.end()), D.Edges.end());
  return D;
}

uint32_t edgeFrom(uint64_t Edge) { return static_cast<uint32_t>(Edge >> 32); }
uint32_t edgeTo(uint64_t Edge) { return static_cast<uint32_t>(Edge); }

} // namespace

DynamicCfg twpp::buildDynamicCfg(const PathTrace &Trace) {
  DynamicCfg Cfg;
  if (Trace.empty())
    return Cfg;

  DenseTrace D = densify(Trace);
  size_t N = D.Blocks.size();
  Cfg.Successors.resize(N);
  Cfg.Predecessors.resize(N);
  Cfg.IsEntry.assign(N, false);
  Cfg.IsExit.assign(N, false);
  Cfg.IsEntry[D.Index.front()] = true;
  Cfg.IsExit[D.Index.back()] = true;
  // Edges ascend by (from, to), so every list comes out sorted.
  for (uint64_t Edge : D.Edges) {
    Cfg.Successors[edgeFrom(Edge)].push_back(D.Blocks[edgeTo(Edge)]);
    Cfg.Predecessors[edgeTo(Edge)].push_back(D.Blocks[edgeFrom(Edge)]);
  }
  Cfg.Blocks = std::move(D.Blocks);
  return Cfg;
}

CompactedTrace twpp::compactWithDbbs(const PathTrace &Trace) {
  CompactedTrace Result;
  if (Trace.size() < 2) {
    Result.Blocks = Trace;
    return Result;
  }

  constexpr uint32_t None = UINT32_MAX;
  DenseTrace D = densify(Trace);
  size_t N = D.Blocks.size();

  // Real-edge degrees, and the one successor / predecessor where there is
  // exactly one.
  std::vector<uint32_t> OutEdges(N, 0), InEdges(N, 0);
  std::vector<uint32_t> Succ(N, None), Pred(N, None);
  for (uint64_t Edge : D.Edges) {
    uint32_t From = edgeFrom(Edge), To = edgeTo(Edge);
    ++OutEdges[From];
    ++InEdges[To];
    Succ[From] = To;
    Pred[To] = From;
  }
  // Effective degrees include the virtual entry/exit edges so that trace
  // boundaries terminate chains.
  uint32_t EntryIndex = D.Index.front(), ExitIndex = D.Index.back();
  auto OutDegree = [&](uint32_t I) {
    return OutEdges[I] + (I == ExitIndex ? 1 : 0);
  };
  auto InDegree = [&](uint32_t I) {
    return InEdges[I] + (I == EntryIndex ? 1 : 0);
  };

  // A block is chain-interior iff it has exactly one predecessor and that
  // predecessor has exactly one successor (virtual edges included).
  std::vector<bool> Interior(N, false);
  for (uint32_t I = 0; I != N; ++I)
    Interior[I] =
        InDegree(I) == 1 && InEdges[I] == 1 && OutDegree(Pred[I]) == 1;

  // Assemble maximal chains starting from every non-interior head.
  // NextInChain[I] holds the index following I inside its chain, or None.
  std::vector<uint32_t> NextInChain(N, None);
  for (uint32_t I = 0; I != N; ++I)
    if (OutDegree(I) == 1 && OutEdges[I] == 1 && Interior[Succ[I]])
      NextInChain[I] = Succ[I];

  // Heads are visited in ascending id order, so the dictionary comes out
  // sorted by head. ChainOf maps a head's index to its chain.
  DbbDictionary &Dict = Result.Dictionary;
  std::vector<uint32_t> ChainOf(N, None);
  for (uint32_t I = 0; I != N; ++I) {
    if (Interior[I] || NextInChain[I] == None)
      continue;
    std::vector<BlockId> Chain;
    for (uint32_t Walk = I; Walk != None; Walk = NextInChain[Walk]) {
      Chain.push_back(D.Blocks[Walk]);
      assert(Chain.size() <= N && "cycle in DBB chain");
    }
    assert(Chain.size() >= 2 && "chain head with no body");
    ChainOf[I] = static_cast<uint32_t>(Dict.Chains.size());
    Dict.Chains.push_back(std::move(Chain));
  }

  // Rewrite the trace: at each chain-head occurrence the full chain must
  // follow (guaranteed by the degree conditions); emit the head and skip
  // the body.
  uint64_t Lookups = 0;
  size_t Pos = 0;
  while (Pos < Trace.size()) {
    BlockId Head = Trace[Pos];
    uint32_t ChainIndex = ChainOf[D.Index[Pos]];
    ++Lookups;
    Result.Blocks.push_back(Head);
    if (ChainIndex == None) {
      ++Pos;
      continue;
    }
    const std::vector<BlockId> &Chain = Dict.Chains[ChainIndex];
    for (size_t K = 0; K < Chain.size(); ++K) {
      (void)K;
      assert(Pos + K < Trace.size() && Trace[Pos + K] == Chain[K] &&
             "chain occurrence does not match dictionary");
    }
    Pos += Chain.size();
  }
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Chains = M.counter(obs::names::DbbChains);
    static obs::Counter &AllLookups = M.counter(obs::names::DbbLookups);
    Chains.add(Dict.Chains.size());
    AllLookups.add(Lookups);
  }
  return Result;
}

void twpp::appendExpansion(const DbbDictionary &Dictionary, BlockId Head,
                           PathTrace &Out) {
  if (const std::vector<BlockId> *Chain = Dictionary.findChain(Head)) {
    Out.insert(Out.end(), Chain->begin(), Chain->end());
    return;
  }
  Out.push_back(Head);
}

PathTrace twpp::expandDbbs(const CompactedTrace &Compacted) {
  PathTrace Out;
  Out.reserve(Compacted.Blocks.size());
  for (BlockId Head : Compacted.Blocks)
    appendExpansion(Compacted.Dictionary, Head, Out);
  return Out;
}
