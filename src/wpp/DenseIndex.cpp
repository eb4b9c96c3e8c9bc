//===- wpp/DenseIndex.cpp - A block sequence over dense indices -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/DenseIndex.h"

#include <algorithm>
#include <utility>

using namespace twpp;

namespace {

/// Slots of a fresh table; it doubles whenever it becomes half full.
constexpr unsigned InitialSlotBits = 6;

} // namespace

inline size_t DenseIndex::KeyTable::home(uint64_t Key) const {
  // Fibonacci hashing: the top bits of the product mix every key bit, so
  // dense runs of ids and ids 2^31 apart spread alike.
  return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> Shift);
}

void DenseIndex::KeyTable::clear() {
  Count = 0;
  if (Slots.empty()) {
    Slots.resize(size_t(1) << InitialSlotBits);
    Shift = 64 - InitialSlotBits;
  }
  if (++Generation == 0) {
    // The stamp wrapped: slots of 2^32 generations ago would look live.
    for (Slot &S : Slots)
      S.Generation = 0;
    Generation = 1;
  }
}

inline uint32_t DenseIndex::KeyTable::number(uint64_t Key) {
  const size_t Mask = Slots.size() - 1;
  for (size_t At = home(Key);; At = (At + 1) & Mask) {
    Slot &S = Slots[At];
    if (S.Generation != Generation) {
      S = Slot{Key, Count, Generation};
      uint32_t Ordinal = Count++;
      if (2 * static_cast<size_t>(Count) > Slots.size())
        grow();
      return Ordinal;
    }
    if (S.Key == Key)
      return S.Ordinal;
  }
}

void DenseIndex::KeyTable::grow() {
  std::vector<Slot> Old =
      std::exchange(Slots, std::vector<Slot>(Slots.size() * 2));
  --Shift;
  const size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (S.Generation != Generation)
      continue;
    size_t At = home(S.Key);
    while (Slots[At].Generation == Generation)
      At = (At + 1) & Mask;
    Slots[At] = S;
  }
}

void DenseIndex::build(const BlockId *Seq, size_t N, bool WithEdges) {
  BlockKeys.clear();
  if (WithEdges)
    EdgeKeys.clear();
  Blocks.clear();
  Counts.clear();
  Edges.clear();
  Index.resize(N);
  uint32_t Prev = 0;
  for (size_t I = 0; I != N; ++I) {
    uint32_t D = BlockKeys.number(Seq[I]);
    if (D == Blocks.size()) {
      Blocks.push_back(Seq[I]);
      Counts.push_back(0);
    }
    ++Counts[D];
    Index[I] = D;
    if (WithEdges && I != 0) {
      uint64_t Edge = static_cast<uint64_t>(Prev) << 32 | D;
      if (EdgeKeys.number(Edge) == Edges.size())
        Edges.push_back(Edge);
    }
    Prev = D;
  }

  const uint32_t K = size();
  SortKeys.resize(K);
  for (uint32_t D = 0; D != K; ++D)
    SortKeys[D] = static_cast<uint64_t>(Blocks[D]) << 32 | D;
  std::sort(SortKeys.begin(), SortKeys.end());
  Ascending.resize(K);
  for (uint32_t R = 0; R != K; ++R)
    Ascending[R] = static_cast<uint32_t>(SortKeys[R]);
}

void DenseIndex::bucketPositions() {
  // Starts[D + 1] first holds where bucket D begins; each scattered
  // timestamp advances it, leaving it where bucket D ends, which is
  // where bucket D + 1 begins.
  const uint32_t K = size();
  Starts.assign(K + 1, 0);
  for (uint32_t D = 0; D + 1 < K; ++D)
    Starts[D + 2] = Starts[D + 1] + Counts[D];
  Positions.resize(Index.size());
  for (size_t I = 0; I != Index.size(); ++I)
    Positions[Starts[Index[I] + 1]++] = static_cast<uint32_t>(I + 1);
}
