//===- wpp/HotPaths.h - Hot path queries over compacted WPPs ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot path identification over the compacted representation (the paper
/// notes the pre-TWPP path trace form "is adequate for identifying hot
/// paths"): per-function unique traces ranked by use count, and search
/// for the occurrences of a given intraprocedural subpath — the query the
/// paper motivates with "one can rapidly search for occurrences of a
/// given path" over the partitioned form (Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_HOTPATHS_H
#define TWPP_WPP_HOTPATHS_H

#include "wpp/Twpp.h"

#include <cstdint>
#include <vector>

namespace twpp {

/// One ranked path of a function.
struct HotPath {
  uint32_t TraceIndex = 0; ///< Into the function's unique trace list.
  uint64_t UseCount = 0;   ///< Calls that followed it.
  PathTrace Blocks;        ///< The expanded block sequence.
};

/// A function's expanded unique paths (expandFunctionTraces) sorted by use
/// count descending (ties by first occurrence), up to \p Limit entries
/// (0 = all).
std::vector<HotPath> hotPathsOf(FunctionPathTraces Expanded,
                                size_t Limit = 0);

/// Occurrences of the contiguous block subsequence \p Needle across the
/// function's executions: the number of dynamic occurrences (occurrences
/// per unique trace times that trace's use count). Only that function's
/// block is examined — the point of the per-function organization.
uint64_t countSubpathOccurrences(const TwppFunctionTable &Table,
                                 const std::vector<BlockId> &Needle);

} // namespace twpp

#endif // TWPP_WPP_HOTPATHS_H
