//===- wpp/DenseIndex.h - A block sequence over dense indices ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one derivation every per-trace write-path stage reads: a block
/// sequence renumbered over its distinct blocks. DBB chaining
/// (compactWithDbbs), the dynamic CFG (buildDynamicCfg) and the
/// timestamped form (twppFromBlockSequence) each build one per trace.
///
/// build() numbers the distinct blocks, and on request the distinct
/// adjacent pairs, in one pass over the sequence through open-addressing
/// tables: expected O(n) for n elements. A block's dense index is the
/// order of its first appearance. The only sort is over the k distinct
/// blocks, for the ascending-id order every stage writes its output in.
/// Block ids come off the wire and span all 32 bits, so the tables are
/// sized by the number of distinct keys, never by the largest id.
///
/// One object reused across the traces of a function keeps its tables
/// and arrays, so the traces after the first allocate nothing here.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_DENSEINDEX_H
#define TWPP_WPP_DENSEINDEX_H

#include "wpp/PathTrace.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twpp {

/// A block sequence over dense indices. The public arrays describe the
/// sequence of the last build(); callers read them and do not resize them.
class DenseIndex {
public:
  /// Renumbers Seq[0, N). With \p WithEdges, also collects the distinct
  /// adjacent pairs into Edges.
  void build(const BlockId *Seq, size_t N, bool WithEdges);

  /// Groups the timestamps 1..N of the last built sequence by dense
  /// index: Positions[Starts[D], Starts[D + 1]) are, ascending, the
  /// timestamps at which block D occurs. A counting sort: O(n + k).
  void bucketPositions();

  /// Number of distinct blocks (k).
  uint32_t size() const { return static_cast<uint32_t>(Blocks.size()); }

  /// Distinct block ids, by dense index.
  std::vector<BlockId> Blocks;
  /// Index[I] is the dense index of Seq[I].
  std::vector<uint32_t> Index;
  /// Occurrences of each dense index in the sequence.
  std::vector<uint32_t> Counts;
  /// Dense indices in ascending block id order.
  std::vector<uint32_t> Ascending;
  /// Each distinct adjacent pair as (from << 32 | to) over dense indices,
  /// in order of first appearance. Empty unless built WithEdges.
  std::vector<uint64_t> Edges;
  /// bucketPositions' output: k + 1 bucket bounds, n timestamps.
  std::vector<uint32_t> Starts;
  std::vector<uint32_t> Positions;

private:
  /// Linear-probing table over 64-bit keys that gives each key the next
  /// ordinal on first sight. A slot is live only when stamped with the
  /// current generation, so clear() costs nothing per slot.
  class KeyTable {
  public:
    void clear();
    uint32_t number(uint64_t Key);

  private:
    struct Slot {
      uint64_t Key = 0;
      uint32_t Ordinal = 0;
      uint32_t Generation = 0;
    };
    void grow();
    size_t home(uint64_t Key) const;

    std::vector<Slot> Slots;
    uint32_t Count = 0;
    uint32_t Generation = 0;
    unsigned Shift = 0;
  };

  KeyTable BlockKeys;
  KeyTable EdgeKeys;
  /// (id << 32 | dense index) per distinct block: the sort key of
  /// Ascending.
  std::vector<uint64_t> SortKeys;
};

} // namespace twpp

#endif // TWPP_WPP_DENSEINDEX_H
