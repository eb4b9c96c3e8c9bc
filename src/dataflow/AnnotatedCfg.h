//===- dataflow/AnnotatedCfg.h - Timestamp-annotated dynamic CFG -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timestamp-annotated dynamic control flow graph (paper Section 4.1):
/// one node per dynamic basic block of a path trace, annotated with the
/// ordered set of timestamps at which it executed. A (timestamp, node)
/// pair names a point in the path trace; predecessors/successors plus
/// timestamp arithmetic give efficient backward/forward traversal of the
/// trace from any point, and timestamp-set operations traverse many
/// subpaths simultaneously.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_DATAFLOW_ANNOTATEDCFG_H
#define TWPP_DATAFLOW_ANNOTATEDCFG_H

#include "wpp/Dbb.h"
#include "wpp/TimestampSet.h"
#include "wpp/Twpp.h"

#include <cstddef>
#include <vector>

namespace twpp {

/// One dynamic basic block with its timestamp annotation.
struct AnnotatedNode {
  /// The DBB's id (head static block of its chain).
  BlockId Head = 0;
  /// The static blocks the DBB covers, in execution order (a single block
  /// when no chain was formed).
  std::vector<BlockId> StaticBlocks;
  /// Time steps at which this DBB executed, series-compacted.
  TimestampSet Times;
  /// Dynamic CFG neighbours (indices into AnnotatedDynamicCfg::Nodes).
  std::vector<uint32_t> Preds;
  std::vector<uint32_t> Succs;
};

/// The annotated dynamic CFG of one unique path trace of one function.
struct AnnotatedDynamicCfg {
  std::vector<AnnotatedNode> Nodes; ///< Sorted by Head.
  uint32_t Length = 0;              ///< Number of time steps in the trace.

  /// Index of the node with DBB id \p Head, or npos.
  size_t nodeIndexOf(BlockId Head) const;

  /// Node executing at timestamp \p T, or npos when T is out of range.
  size_t nodeAt(Timestamp T) const;

  uint64_t edgeCount() const;

  static constexpr size_t npos = static_cast<size_t>(-1);
};

/// Builds the annotated dynamic CFG from a TWPP trace and its dictionary.
/// Pass an empty dictionary for statement-level graphs (no DBB
/// collapsing), as the slicing algorithms use. When the trace's timestamp
/// sets do not tile 1..Length (blockSequenceFromTwpp fails), the graph has
/// the trace's nodes but no edges.
AnnotatedDynamicCfg buildAnnotatedCfg(const TwppTrace &Trace,
                                      const DbbDictionary &Dictionary);

/// Convenience: builds the annotated CFG straight from a raw block
/// sequence (each block is its own DBB).
AnnotatedDynamicCfg buildAnnotatedCfgFromSequence(
    const std::vector<BlockId> &Sequence);

} // namespace twpp

#endif // TWPP_DATAFLOW_ANNOTATEDCFG_H
