//===- support/Arena.h - Bump-pointer allocation arena ----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for decode scratch space. The archive read path
/// decodes each function block into flat arrays (the series runs, block
/// ids and chain pools); allocating those
/// from the heap per series was a measurable cost of every query. An Arena
/// hands out memory by bumping a cursor through pooled blocks and recycles
/// everything with one reset() — after the first query warms the pool, a
/// decode performs zero intermediate heap allocations.
///
/// Semantics:
///  - allocate() returns maximally-aligned-or-better storage; a request
///    larger than the block size gets a dedicated spill block (kept and
///    reused like any other block).
///  - reset() rewinds the arena without releasing memory: subsequent
///    allocations reuse the pooled blocks in order. Destruction frees
///    everything.
///  - Not thread-safe; the read path keeps one arena per thread.
///
/// Observability: when constructed with a memtag (obs/Memory.h), every
/// block the arena acquires is recorded against that tag (arena.decode for
/// the read path) and released on destruction, so twpp memstat and the
/// twpp-mem-* ledger checks see pooled scratch as live bytes — reserved,
/// not leaked.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_ARENA_H
#define TWPP_SUPPORT_ARENA_H

#include "obs/Memory.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace twpp {

class Arena {
public:
  static constexpr size_t DefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t BlockBytes = DefaultBlockBytes,
                 const char *MemTag = nullptr)
      : BlockBytes(BlockBytes ? BlockBytes : DefaultBlockBytes),
        MemTag(MemTag) {}

  ~Arena() { release(); }

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align (a power of two no
  /// larger than alignof(std::max_align_t); blocks are max-aligned, so any
  /// standard alignment is honoured). Zero-byte requests return a unique,
  /// valid pointer into the current block.
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    while (Current < Blocks.size()) {
      Block &B = Blocks[Current];
      size_t Aligned = (B.Used + (Align - 1)) & ~(Align - 1);
      if (Aligned + Bytes <= B.Size) {
        B.Used = Aligned + Bytes;
        Used = UsedBeforeCurrent + B.Used;
        return B.Data.get() + Aligned;
      }
      UsedBeforeCurrent += B.Used;
      ++Current;
    }
    // No pooled block fits: acquire one. Oversized requests spill into a
    // dedicated block of exactly their size; it is pooled for reuse too.
    size_t Size = Bytes > BlockBytes ? Bytes : BlockBytes;
    Blocks.push_back({std::unique_ptr<uint8_t[]>(new uint8_t[Size]), Size,
                      Bytes});
    Reserved += Size;
    Used = UsedBeforeCurrent + Bytes;
    if (MemTag && obs::memTrackingEnabled()) {
      obs::memAlloc(MemTag, Size);
      Ledgered += Size;
    }
    return Blocks.back().Data.get();
  }

  /// Typed array allocation (uninitialized storage).
  template <typename T> T *allocateArray(size_t Count) {
    return static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
  }

  /// Rewinds the arena to empty while keeping every block for reuse.
  void reset() {
    for (Block &B : Blocks)
      B.Used = 0;
    Current = 0;
    Used = 0;
    UsedBeforeCurrent = 0;
  }

  /// Returns every pooled block to the heap and settles the ledger. Only
  /// the bytes actually recorded are freed, so toggling tracking
  /// mid-lifetime can never drive the tag's live count negative.
  void release() {
    Blocks.clear();
    Current = 0;
    Used = 0;
    UsedBeforeCurrent = 0;
    Reserved = 0;
    if (MemTag && Ledgered) {
      obs::memFree(MemTag, Ledgered);
      Ledgered = 0;
    }
  }

  /// Bytes handed out since the last reset().
  size_t bytesUsed() const { return Used; }

  /// Total block bytes the arena holds (its ledger footprint).
  size_t bytesReserved() const { return Reserved; }

  size_t blockCount() const { return Blocks.size(); }

private:
  struct Block {
    std::unique_ptr<uint8_t[]> Data;
    size_t Size = 0;
    size_t Used = 0;
  };

  size_t BlockBytes;
  const char *MemTag;
  std::vector<Block> Blocks;
  /// Index of the block currently being bumped; earlier blocks are full.
  size_t Current = 0;
  size_t Used = 0;
  size_t UsedBeforeCurrent = 0;
  size_t Reserved = 0;
  size_t Ledgered = 0;
};

/// A growable array of trivially copyable \p T in an Arena. Growth doubles
/// the capacity and leaves the old storage to the arena, so the waste is
/// at most the final size and all of it returns with the arena's next
/// reset(). Valid until that reset().
template <typename T> class ArenaVector {
public:
  explicit ArenaVector(Arena &Scratch) : Scratch(&Scratch) {}

  void push_back(const T &Value) {
    if (Size == Capacity)
      grow();
    Data[Size++] = Value;
  }

  size_t size() const { return Size; }
  const T *data() const { return Data; }

private:
  void grow() {
    size_t NewCapacity = Capacity ? Capacity * 2 : 16;
    T *NewData = Scratch->allocateArray<T>(NewCapacity);
    for (size_t I = 0; I != Size; ++I)
      NewData[I] = Data[I];
    Data = NewData;
    Capacity = NewCapacity;
  }

  Arena *Scratch;
  T *Data = nullptr;
  size_t Size = 0;
  size_t Capacity = 0;
};

} // namespace twpp

#endif // TWPP_SUPPORT_ARENA_H
