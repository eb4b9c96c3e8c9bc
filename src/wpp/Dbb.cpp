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

uint32_t edgeFrom(uint64_t Edge) { return static_cast<uint32_t>(Edge >> 32); }
uint32_t edgeTo(uint64_t Edge) { return static_cast<uint32_t>(Edge); }

} // namespace

DynamicCfg twpp::buildDynamicCfg(const PathTrace &Trace) {
  DynamicCfg Cfg;
  if (Trace.empty())
    return Cfg;

  DenseIndex D;
  D.build(Trace.data(), Trace.size(), /*WithEdges=*/true);
  const uint32_t N = D.size();
  // Rank[I] is dense index I's position in ascending block id order.
  std::vector<uint32_t> Rank(N);
  Cfg.Blocks.resize(N);
  for (uint32_t R = 0; R != N; ++R) {
    Rank[D.Ascending[R]] = R;
    Cfg.Blocks[R] = D.Blocks[D.Ascending[R]];
  }
  std::vector<uint64_t> Edges(D.Edges.size());
  for (size_t E = 0; E != Edges.size(); ++E)
    Edges[E] = static_cast<uint64_t>(Rank[edgeFrom(D.Edges[E])]) << 32 |
               Rank[edgeTo(D.Edges[E])];
  std::sort(Edges.begin(), Edges.end());
  Cfg.Successors.resize(N);
  Cfg.Predecessors.resize(N);
  Cfg.IsEntry.assign(N, false);
  Cfg.IsExit.assign(N, false);
  Cfg.IsEntry[Rank[D.Index.front()]] = true;
  Cfg.IsExit[Rank[D.Index.back()]] = true;
  // Edges ascend by (from, to) rank, so every list comes out sorted.
  for (uint64_t Edge : Edges) {
    Cfg.Successors[edgeFrom(Edge)].push_back(Cfg.Blocks[edgeTo(Edge)]);
    Cfg.Predecessors[edgeTo(Edge)].push_back(Cfg.Blocks[edgeFrom(Edge)]);
  }
  return Cfg;
}

CompactedTrace twpp::compactWithDbbs(const PathTrace &Trace) {
  DenseIndex Scratch;
  return compactWithDbbs(Trace, Scratch);
}

CompactedTrace twpp::compactWithDbbs(const PathTrace &Trace,
                                     DenseIndex &D) {
  CompactedTrace Result;
  if (Trace.size() < 2) {
    Result.Blocks = Trace;
    return Result;
  }

  constexpr uint32_t None = UINT32_MAX;
  D.build(Trace.data(), Trace.size(), /*WithEdges=*/true);
  const uint32_t N = D.size();

  // Per dense index: real-edge degrees, the one successor / predecessor
  // where there is exactly one, and the chain it heads.
  struct Node {
    uint32_t OutEdges = 0, InEdges = 0;
    uint32_t Succ = None, Pred = None;
    uint32_t NextInChain = None;
    uint32_t Chain = None, ChainLength = 1;
    bool Interior = false;
  };
  std::vector<Node> Nodes(N);
  for (uint64_t Edge : D.Edges) {
    uint32_t From = edgeFrom(Edge), To = edgeTo(Edge);
    ++Nodes[From].OutEdges;
    ++Nodes[To].InEdges;
    Nodes[From].Succ = To;
    Nodes[To].Pred = From;
  }
  // Effective degrees include the virtual entry/exit edges so that trace
  // boundaries terminate chains.
  uint32_t EntryIndex = D.Index.front(), ExitIndex = D.Index.back();
  auto OutDegree = [&](uint32_t I) {
    return Nodes[I].OutEdges + (I == ExitIndex ? 1 : 0);
  };
  auto InDegree = [&](uint32_t I) {
    return Nodes[I].InEdges + (I == EntryIndex ? 1 : 0);
  };

  // A block is chain-interior iff it has exactly one predecessor and that
  // predecessor has exactly one successor (virtual edges included).
  for (uint32_t I = 0; I != N; ++I)
    Nodes[I].Interior = InDegree(I) == 1 && Nodes[I].InEdges == 1 &&
                        OutDegree(Nodes[I].Pred) == 1;

  // Link maximal chains: NextInChain holds the index following I inside
  // its chain, or None.
  for (uint32_t I = 0; I != N; ++I)
    if (OutDegree(I) == 1 && Nodes[I].OutEdges == 1 &&
        Nodes[Nodes[I].Succ].Interior)
      Nodes[I].NextInChain = Nodes[I].Succ;

  // Heads are visited in ascending id order, so the dictionary comes out
  // sorted by head. Every occurrence of a head is followed by its whole
  // chain, so the collapsed trace's length is known before it is written.
  DbbDictionary &Dict = Result.Dictionary;
  size_t Collapsed = Trace.size();
  for (uint32_t I : D.Ascending) {
    Node &Head = Nodes[I];
    if (Head.Interior || Head.NextInChain == None)
      continue;
    uint32_t Length = 0;
    for (uint32_t Walk = I; Walk != None; Walk = Nodes[Walk].NextInChain) {
      ++Length;
      assert(Length <= N && "cycle in DBB chain");
    }
    assert(Length >= 2 && "chain head with no body");
    std::vector<BlockId> Chain;
    Chain.reserve(Length);
    for (uint32_t Walk = I; Walk != None; Walk = Nodes[Walk].NextInChain)
      Chain.push_back(D.Blocks[Walk]);
    Head.Chain = static_cast<uint32_t>(Dict.Chains.size());
    Head.ChainLength = Length;
    Collapsed -= static_cast<size_t>(D.Counts[I]) * (Length - 1);
    Dict.Chains.push_back(std::move(Chain));
  }

  // Rewrite the trace: at each chain-head occurrence the full chain must
  // follow (guaranteed by the degree conditions); emit the head and skip
  // the body.
  Result.Blocks.reserve(Collapsed);
  size_t Pos = 0;
  while (Pos < Trace.size()) {
    const Node &At = Nodes[D.Index[Pos]];
    Result.Blocks.push_back(Trace[Pos]);
    if (At.Chain != None) {
      const std::vector<BlockId> &Chain = Dict.Chains[At.Chain];
      for (size_t K = 0; K < Chain.size(); ++K) {
        (void)K;
        assert(Pos + K < Trace.size() && Trace[Pos + K] == Chain[K] &&
               "chain occurrence does not match dictionary");
      }
    }
    Pos += At.ChainLength;
  }
  assert(Result.Blocks.size() == Collapsed && "collapsed length mismatch");
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Chains = M.counter(obs::names::DbbChains);
    static obs::Counter &AllLookups = M.counter(obs::names::DbbLookups);
    Chains.add(Dict.Chains.size());
    AllLookups.add(Result.Blocks.size());
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
