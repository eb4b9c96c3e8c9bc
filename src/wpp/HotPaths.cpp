//===- wpp/HotPaths.cpp - Hot path queries over compacted WPPs ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/HotPaths.h"

#include <algorithm>
#include <numeric>

using namespace twpp;

std::vector<HotPath> twpp::hotPathsOf(FunctionPathTraces Expanded,
                                      size_t Limit) {
  std::vector<uint32_t> Order(Expanded.Traces.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&Expanded](uint32_t A, uint32_t B) {
                     return Expanded.UseCounts[A] > Expanded.UseCounts[B];
                   });
  if (Limit != 0 && Order.size() > Limit)
    Order.resize(Limit);

  std::vector<HotPath> Out;
  Out.reserve(Order.size());
  for (uint32_t Index : Order) {
    HotPath Path;
    Path.TraceIndex = Index;
    Path.UseCount = Expanded.UseCounts[Index];
    Path.Blocks = std::move(Expanded.Traces[Index]);
    Out.push_back(std::move(Path));
  }
  return Out;
}

uint64_t
twpp::countSubpathOccurrences(const TwppFunctionTable &Table,
                              const std::vector<BlockId> &Needle) {
  if (Needle.empty())
    return 0;
  FunctionPathTraces Expanded = expandFunctionTraces(Table);
  uint64_t Total = 0;
  for (size_t T = 0; T < Expanded.Traces.size(); ++T) {
    const PathTrace &Hay = Expanded.Traces[T];
    if (Hay.size() < Needle.size())
      continue;
    uint64_t Occurrences = 0;
    for (size_t I = 0; I + Needle.size() <= Hay.size(); ++I)
      if (std::equal(Needle.begin(), Needle.end(), Hay.begin() + I))
        ++Occurrences;
    Total += Occurrences * Expanded.UseCounts[T];
  }
  return Total;
}
