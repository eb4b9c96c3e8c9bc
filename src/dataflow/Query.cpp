//===- dataflow/Query.cpp - Demand-driven GEN-KILL queries ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Query.h"

#include "dataflow/Frontier.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"

using namespace twpp;

BlockEffect twpp::chainEffect(const std::vector<BlockId> &StaticBlocks,
                              const EffectFn &Effect) {
  // A backward query sees the chain's members in reverse: the last
  // non-transparent member decides.
  for (auto It = StaticBlocks.rbegin(); It != StaticBlocks.rend(); ++It) {
    BlockEffect E = Effect(*It);
    if (E != BlockEffect::Transparent)
      return E;
  }
  return BlockEffect::Transparent;
}

QueryResult twpp::propagateBackward(const AnnotatedDynamicCfg &Cfg,
                                    size_t NodeIndex,
                                    const TimestampSet &Times,
                                    const EffectFn &Effect) {
  QueryResult Result;
  if (Times.empty() || NodeIndex >= Cfg.Nodes.size())
    return Result;
  obs::PhaseSpan Span("dataflow_query", "node",
                      static_cast<int64_t>(NodeIndex));

  // Chain effects, computed on first use: Unknown until then.
  constexpr uint8_t Unknown = 0xFF;
  std::vector<uint8_t> Effects(Cfg.Nodes.size(), Unknown);
  TimestampSet Origin, Merged;
  auto Accumulate = [&](TimestampSet &Into, const TimestampSet &Add) {
    Into.uniteInto(Add, Merged);
    std::swap(Into, Merged);
  };

  detail::propagateFrontier(
      Cfg, NodeIndex, Times, Result,
      [&](uint32_t Depth) {
        // The instance reached the function entry unresolved.
        Accumulate(Result.AtEntry,
                   TimestampSet::fromRun(Depth + 1, Depth + 1, 1));
      },
      [&](uint32_t Pred, uint32_t Depth, const TimestampSet &Meet) {
        uint8_t &E = Effects[Pred];
        if (E == Unknown)
          E = static_cast<uint8_t>(
              chainEffect(Cfg.Nodes[Pred].StaticBlocks, Effect));
        if (static_cast<BlockEffect>(E) == BlockEffect::Transparent)
          return true;
        // Report resolutions in the original query's timestamp coordinates.
        Meet.shiftedInto(static_cast<int64_t>(Depth) + 1, Origin);
        Accumulate(static_cast<BlockEffect>(E) == BlockEffect::Gen
                       ? Result.True
                       : Result.False,
                   Origin);
        return false;
      });
  if (obs::enabled()) {
    static obs::Counter &Queries =
        obs::metrics().counter(obs::names::DataflowQueries);
    Queries.add();
  }
  return Result;
}

FactFrequency twpp::factFrequency(const AnnotatedDynamicCfg &Cfg,
                                  BlockId Node, const EffectFn &Effect) {
  FactFrequency Freq;
  size_t Index = Cfg.nodeIndexOf(Node);
  if (Index == AnnotatedDynamicCfg::npos)
    return Freq;
  const TimestampSet &Times = Cfg.Nodes[Index].Times;
  QueryResult Result = propagateBackward(Cfg, Index, Times, Effect);
  Freq.Holds = Result.True.count();
  Freq.Total = Times.count();
  Freq.QueriesGenerated = Result.QueriesGenerated;
  return Freq;
}
