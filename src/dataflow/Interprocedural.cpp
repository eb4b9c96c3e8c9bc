//===- dataflow/Interprocedural.cpp - Call-aware GEN-KILL effects ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Interprocedural.h"

#include "dataflow/Frontier.h"

#include <cassert>
#include <unordered_map>

using namespace twpp;

CallEffectOracle::CallEffectOracle(const TwppWpp &Wpp, ModuleEffectFn Fn)
    : Effect(std::move(Fn)) {
  const DynamicCallGraph &Dcg = Wpp.Dcg;
  Effects.assign(Dcg.Nodes.size(), BlockEffect::Transparent);

  // Expanded unique traces, cached per (function, unique trace index).
  std::unordered_map<uint64_t, PathTrace> TraceCache;
  auto ExpandedTrace = [&](FunctionId F, uint32_t TraceIndex) -> const PathTrace & {
    uint64_t Key = (static_cast<uint64_t>(F) << 32) | TraceIndex;
    auto It = TraceCache.find(Key);
    if (It != TraceCache.end())
      return It->second;
    const TwppFunctionTable &Table = Wpp.Functions[F];
    auto [StringIdx, DictIdx] = Table.Traces[TraceIndex];
    PathTrace Expanded;
    bool Ok = expandPathTrace(Table.TraceStrings[StringIdx],
                              Table.Dictionaries[DictIdx], Expanded);
    assert(Ok && "inconsistent TWPP trace");
    (void)Ok;
    return TraceCache.emplace(Key, std::move(Expanded)).first->second;
  };

  // Children always have larger indices than their parent (DCG nodes are
  // created in call order), so a reverse sweep folds bottom-up.
  for (size_t N = Dcg.Nodes.size(); N-- > 0;) {
    const DcgNode &Node = Dcg.Nodes[N];
    const PathTrace &Blocks = ExpandedTrace(Node.Function, Node.TraceIndex);

    BlockEffect Last = BlockEffect::Transparent;
    size_t Child = 0;
    auto FoldCallsAt = [&](uint32_t Position) {
      while (Child < Node.Children.size() &&
             Node.Anchors[Child] == Position) {
        BlockEffect E = Effects[Node.Children[Child++]];
        if (E != BlockEffect::Transparent)
          Last = E;
      }
    };
    FoldCallsAt(0);
    for (uint32_t K = 0; K < Blocks.size(); ++K) {
      // Convention: a block's own statements act before the calls it
      // makes (the granularity of the trace cannot order them finer).
      BlockEffect E = Effect(Node.Function, Blocks[K]);
      if (E != BlockEffect::Transparent)
        Last = E;
      FoldCallsAt(K + 1);
    }
    Effects[N] = Last;
  }
}

CallInstanceView twpp::buildCallInstanceView(const TwppWpp &Wpp,
                                             uint32_t NodeIndex) {
  CallInstanceView View;
  const DcgNode &Node = Wpp.Dcg.Nodes[NodeIndex];
  const TwppFunctionTable &Table = Wpp.Functions[Node.Function];
  auto [StringIdx, DictIdx] = Table.Traces[Node.TraceIndex];
  PathTrace Expanded;
  bool Ok = expandPathTrace(Table.TraceStrings[StringIdx],
                            Table.Dictionaries[DictIdx], Expanded);
  assert(Ok && "inconsistent TWPP trace");
  (void)Ok;

  View.Cfg = buildAnnotatedCfgFromSequence(Expanded);
  // CallsAt[0] holds calls made before any block event; CallsAt[t] the
  // calls made during block event t.
  View.CallsAt.assign(Expanded.size() + 1, {});
  for (size_t C = 0; C < Node.Children.size(); ++C)
    View.CallsAt[Node.Anchors[C]].push_back(Node.Children[C]);
  return View;
}

QueryResult twpp::propagateBackwardInterprocedural(
    const CallInstanceView &View, const CallEffectOracle &Oracle,
    FunctionId Function, size_t NodeIndex, const TimestampSet &Times) {
  QueryResult Result;
  const AnnotatedDynamicCfg &Cfg = View.Cfg;

  /// Effect of block event \p T (block's own statements, then the calls
  /// anchored there; the last non-transparent action wins backwards).
  auto InstanceEffect = [&](BlockId Block, Timestamp T) {
    BlockEffect Last = Oracle.moduleEffect()(Function, Block);
    for (uint32_t Call : View.CallsAt[T]) {
      BlockEffect E = Oracle.callEffect(Call);
      if (E != BlockEffect::Transparent)
        Last = E;
    }
    return Last;
  };
  auto Accumulate = [&](BlockEffect Effect, const TimestampSet &Origin) {
    TimestampSet &Into = Effect == BlockEffect::Gen    ? Result.True
                         : Effect == BlockEffect::Kill ? Result.False
                                                       : Result.AtEntry;
    Into = Into.unite(Origin);
  };

  detail::propagateFrontier(
      Cfg, NodeIndex, Times, Result,
      [&](uint32_t Depth) {
        // Calls anchored before the first block act at the entry boundary.
        BlockEffect Last = BlockEffect::Transparent;
        for (uint32_t Call : View.CallsAt[0]) {
          BlockEffect E = Oracle.callEffect(Call);
          if (E != BlockEffect::Transparent)
            Last = E;
        }
        Accumulate(Last, TimestampSet::fromRun(Depth + 1, Depth + 1, 1));
      },
      [&](uint32_t Pred, uint32_t Depth, TimestampSet &Meet) {
        // Per-instance resolution: instances of the same block can have
        // different effects depending on the calls they made.
        std::vector<Timestamp> GenT, KillT, OpenT;
        for (Timestamp T : Meet.toVector()) {
          switch (InstanceEffect(Cfg.Nodes[Pred].Head, T)) {
          case BlockEffect::Gen:
            GenT.push_back(T);
            break;
          case BlockEffect::Kill:
            KillT.push_back(T);
            break;
          case BlockEffect::Transparent:
            OpenT.push_back(T);
            break;
          }
        }
        int64_t ToOrigin = static_cast<int64_t>(Depth) + 1;
        if (!GenT.empty())
          Accumulate(BlockEffect::Gen,
                     TimestampSet::fromSorted(GenT).shifted(ToOrigin));
        if (!KillT.empty())
          Accumulate(BlockEffect::Kill,
                     TimestampSet::fromSorted(KillT).shifted(ToOrigin));
        if (OpenT.empty())
          return false;
        Meet = TimestampSet::fromSorted(OpenT);
        return true;
      });
  return Result;
}
