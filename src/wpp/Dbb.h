//===- wpp/Dbb.h - Dynamic basic block dictionaries -------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 3 of the compaction pipeline: dynamic basic block (DBB)
/// dictionaries. A DBB of a path trace is a maximal chain of static blocks
/// that is always entered at its first block and exited at its last block
/// within that trace. Chains are found in the trace's dynamic control flow
/// graph; every occurrence is replaced by the chain's head id, and the
/// chain bodies are recorded in a per-trace dictionary (paper Figures 4-5).
///
/// Chain condition: block b extends the current chain ending at a iff the
/// dynamic CFG (including virtual entry/exit edges for the trace
/// boundaries) has out-degree(a) == 1 and in-degree(b) == 1. The virtual
/// edges guarantee that a head occurrence at the very end of a trace cannot
/// be mistaken for a full chain occurrence.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_DBB_H
#define TWPP_WPP_DBB_H

#include "wpp/DenseIndex.h"
#include "wpp/PathTrace.h"

#include <cstddef>
#include <vector>

namespace twpp {

/// A path trace after DBB compaction: the block sequence with each chain
/// occurrence collapsed to its head id, plus the dictionary of chains.
struct CompactedTrace {
  std::vector<BlockId> Blocks;
  DbbDictionary Dictionary;

  bool operator==(const CompactedTrace &Other) const = default;
};

/// The dynamic control flow graph of one path trace: the distinct blocks
/// and the adjacency relation observed in the trace. Exposed separately
/// because the profile-limited analyses (Section 4) and the flow graph
/// statistics (Table 6) need it too.
struct DynamicCfg {
  /// Distinct block ids, sorted ascending.
  std::vector<BlockId> Blocks;
  /// Successor lists, parallel to Blocks, each sorted ascending.
  std::vector<std::vector<BlockId>> Successors;
  /// Predecessor lists, parallel to Blocks, each sorted ascending.
  std::vector<std::vector<BlockId>> Predecessors;
  /// True when the block at the same index starts the trace / ends the
  /// trace somewhere (the virtual entry/exit edges).
  std::vector<bool> IsEntry;
  std::vector<bool> IsExit;

  /// Index of \p Block in Blocks, or npos when absent.
  size_t indexOf(BlockId Block) const;

  /// Total number of (real) edges.
  uint64_t edgeCount() const;

  static constexpr size_t npos = static_cast<size_t>(-1);
};

/// Builds the dynamic CFG of \p Trace.
DynamicCfg buildDynamicCfg(const PathTrace &Trace);

/// Compacts \p Trace by discovering DBB chains and collapsing them.
/// Traces shorter than 2 blocks are returned unchanged with an empty
/// dictionary. O(n) expected in the trace's length, plus sorting its
/// distinct blocks.
CompactedTrace compactWithDbbs(const PathTrace &Trace);

/// The same, building the trace's dense index in \p Scratch: a caller
/// compacting many traces passes one scratch to all of them.
CompactedTrace compactWithDbbs(const PathTrace &Trace, DenseIndex &Scratch);

/// Inverse of compactWithDbbs: expands every chain head back to its body.
PathTrace expandDbbs(const CompactedTrace &Compacted);

/// Expands a single compacted element: the chain body when \p Head names a
/// chain, else the singleton {Head}.
void appendExpansion(const DbbDictionary &Dictionary, BlockId Head,
                     PathTrace &Out);

} // namespace twpp

#endif // TWPP_WPP_DBB_H
