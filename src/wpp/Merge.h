//===- wpp/Merge.h - Merging WPPs from multiple runs ------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregation of whole program paths across executions. A profile
/// database normally accumulates several runs of the same program; the
/// partitioned representation merges naturally — unique path traces are
/// re-interned across runs (redundancy elimination now also applies
/// *between* runs) and the dynamic call graphs concatenate as a forest
/// (DynamicCallGraph::Roots keeps one root per run, in order). The merge
/// is lossless: reconstructing the merged WPP replays the runs
/// back-to-back.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_MERGE_H
#define TWPP_WPP_MERGE_H

#include "wpp/Partition.h"
#include "wpp/Twpp.h"

#include <vector>

namespace twpp {

/// Merges partitioned WPPs of several runs of the same program (all
/// inputs must agree on the function count). Unique traces are
/// re-deduplicated across runs; use counts and call counts accumulate;
/// the DCG becomes a forest with the runs' roots in input order.
PartitionedWpp mergePartitionedWpps(
    const std::vector<const PartitionedWpp *> &Runs);

/// Convenience: merges fully compacted WPPs by expanding to partitioned
/// form, merging, and re-running the DBB/TWPP stages. A run whose
/// timestamp sets do not tile its traces yields an empty result.
TwppWpp mergeCompactedWpps(const std::vector<const TwppWpp *> &Runs);

} // namespace twpp

#endif // TWPP_WPP_MERGE_H
