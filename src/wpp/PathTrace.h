//===- wpp/PathTrace.h - Per-call path trace types --------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary types for the WPP compaction pipeline. A *path trace*
/// is the basic-block sequence executed by one function invocation (blocks
/// run by nested calls belong to the callee's own path trace). A *dynamic
/// basic block dictionary* records the block chains that DBB compaction
/// collapsed, keyed by the chain's first block id.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_PATHTRACE_H
#define TWPP_WPP_PATHTRACE_H

#include "trace/Events.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twpp {

/// The block sequence of one function invocation.
using PathTrace = std::vector<BlockId>;

/// Dictionary of dynamic basic blocks for one compacted path trace.
/// Each chain is a run of static blocks always entered at the front and
/// exited at the back; only chains of length >= 2 are recorded. The chain's
/// id in the compacted trace is its first block's id. Chains are kept
/// sorted by head id so equal dictionaries compare equal.
struct DbbDictionary {
  std::vector<std::vector<BlockId>> Chains;

  bool operator==(const DbbDictionary &Other) const = default;

  /// Returns the chain headed by \p Head, or nullptr when \p Head is a
  /// plain static block.
  const std::vector<BlockId> *findChain(BlockId Head) const;
};

/// Binary search over \p Count chain heads sorted ascending, \p HeadAt(I)
/// giving the I-th: the position of the first head not below \p Head.
/// findChain and the one-pass trace expansion (expandPathTrace) share it,
/// so both resolve a block alike, even in a crafted, unsorted dictionary.
template <typename HeadAtFn>
size_t lowerBoundHead(size_t Count, BlockId Head, HeadAtFn &&HeadAt) {
  size_t Lo = 0, Hi = Count;
  while (Lo < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (HeadAt(Mid) < Head)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

inline const std::vector<BlockId> *
DbbDictionary::findChain(BlockId Head) const {
  size_t At = lowerBoundHead(Chains.size(), Head, [this](size_t I) {
    return Chains[I].front();
  });
  if (At < Chains.size() && Chains[At].front() == Head)
    return &Chains[At];
  return nullptr;
}

/// FNV-1a style hash of a block-id sequence, used to dedupe path traces.
inline uint64_t hashBlockSequence(const std::vector<BlockId> &Blocks) {
  uint64_t Hash = 0xCBF29CE484222325ULL;
  for (BlockId Block : Blocks) {
    Hash ^= Block;
    Hash *= 0x100000001B3ULL;
  }
  return Hash;
}

/// Hash of a whole dictionary (chain set), composed with chain hashes.
inline uint64_t hashDictionary(const DbbDictionary &Dict) {
  uint64_t Hash = 0x9E3779B97F4A7C15ULL;
  for (const auto &Chain : Dict.Chains) {
    Hash ^= hashBlockSequence(Chain) + 0x9E3779B97F4A7C15ULL + (Hash << 6) +
            (Hash >> 2);
  }
  return Hash;
}

} // namespace twpp

#endif // TWPP_WPP_PATHTRACE_H
