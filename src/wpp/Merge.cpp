//===- wpp/Merge.cpp - Merging WPPs from multiple runs --------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Merge.h"

#include <cassert>
#include <unordered_map>

using namespace twpp;

PartitionedWpp twpp::mergePartitionedWpps(
    const std::vector<const PartitionedWpp *> &Runs) {
  PartitionedWpp Out;
  if (Runs.empty())
    return Out;
  size_t FunctionCount = Runs.front()->Functions.size();
  Out.Functions.resize(FunctionCount);

  // Cross-run trace interners, one per function.
  struct Interner {
    std::unordered_multimap<uint64_t, uint32_t> Buckets;

    uint32_t intern(FunctionTraceTable &Table, const PathTrace &Trace) {
      uint64_t Hash = hashBlockSequence(Trace);
      auto Range = Buckets.equal_range(Hash);
      for (auto It = Range.first; It != Range.second; ++It)
        if (Table.UniqueTraces[It->second] == Trace)
          return It->second;
      uint32_t Index = static_cast<uint32_t>(Table.UniqueTraces.size());
      Table.UniqueTraces.push_back(Trace);
      Table.UseCounts.push_back(0);
      Buckets.emplace(Hash, Index);
      return Index;
    }
  };
  std::vector<Interner> Interners(FunctionCount);

  for (const PartitionedWpp *Run : Runs) {
    assert(Run->Functions.size() == FunctionCount &&
           "runs disagree on the function count");
    // Remap every function's unique trace indices into the merged pools.
    std::vector<std::vector<uint32_t>> Remap(FunctionCount);
    for (size_t F = 0; F < FunctionCount; ++F) {
      const FunctionTraceTable &In = Run->Functions[F];
      FunctionTraceTable &Table = Out.Functions[F];
      Remap[F].resize(In.UniqueTraces.size());
      for (size_t T = 0; T < In.UniqueTraces.size(); ++T) {
        uint32_t Merged = Interners[F].intern(Table, In.UniqueTraces[T]);
        Remap[F][T] = Merged;
        Table.UseCounts[Merged] += In.UseCounts[T];
      }
      Table.CallCount += In.CallCount;
      Table.TotalBlockEvents += In.TotalBlockEvents;
    }

    // Append the run's DCG with node indices shifted and trace indices
    // remapped; roots keep run order.
    uint32_t Base = static_cast<uint32_t>(Out.Dcg.Nodes.size());
    for (const DcgNode &Node : Run->Dcg.Nodes) {
      DcgNode Copy = Node;
      Copy.TraceIndex = Remap[Node.Function][Node.TraceIndex];
      for (uint32_t &Child : Copy.Children)
        Child += Base;
      Out.Dcg.Nodes.push_back(std::move(Copy));
    }
    for (uint32_t Root : Run->Dcg.Roots)
      Out.Dcg.Roots.push_back(Root + Base);
  }
  return Out;
}

TwppWpp twpp::mergeCompactedWpps(const std::vector<const TwppWpp *> &Runs) {
  std::vector<PartitionedWpp> Expanded;
  Expanded.reserve(Runs.size());
  for (const TwppWpp *Run : Runs) {
    DbbWpp Dbb;
    if (!twppToDbb(*Run, Dbb))
      return TwppWpp();
    Expanded.push_back(dbbToPartitioned(Dbb));
  }
  std::vector<const PartitionedWpp *> Pointers;
  Pointers.reserve(Expanded.size());
  for (const PartitionedWpp &Wpp : Expanded)
    Pointers.push_back(&Wpp);
  return convertToTwpp(applyDbbCompaction(mergePartitionedWpps(Pointers)));
}
