//===- wpp/Concurrent.h - Thread-partitioned compacted WPPs -----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compacted form of a concurrent trace. Each thread's RawTrace is
/// compacted independently through the paper's full pipeline (partition,
/// DBB, TWPP conversion) — per-thread timestamps mean the per-function
/// timestamp sets are exactly the single-threaded representation — and the
/// per-thread results are merged into one TwppWpp over a *virtual*
/// function-id space (thread-major: virtual id = thread * FunctionCount +
/// function), so the whole archive machinery (layout, index, DCG, LZW,
/// verify) applies unchanged.
///
/// Alongside the merged body, a ConcurrencyInfo records what the merge
/// cannot express: the thread table, the derived happens-before edges
/// (as runs whose indices and times step by constants), and per-thread
/// per-address access timestamp sets (the same run-compressed
/// TimestampSet the path traces use — reads and writes of one address
/// become two series over the thread's 1..N block clock).
/// This is the archive's thread trailer and the race detector's entire
/// input: races are found without touching the control-flow blocks.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_CONCURRENT_H
#define TWPP_WPP_CONCURRENT_H

#include "trace/ThreadEvents.h"
#include "wpp/Twpp.h"

namespace twpp {

/// One row of the archive's thread table.
struct ThreadInfo {
  ThreadId Id = 0;
  uint64_t BlockCount = 0; ///< The thread's total block events (its N).

  bool operator==(const ThreadInfo &Other) const = default;
};

/// Read/write timestamp sets of one address on one thread. Timestamps are
/// the thread's 1-based block-event times.
struct AddressAccess {
  Address Addr = 0;
  TimestampSet Reads;
  TimestampSet Writes;

  bool operator==(const AddressAccess &Other) const = default;
};

/// All traced accesses of one thread, sorted by address ascending.
struct ThreadAccessTable {
  std::vector<AddressAccess> Accesses;

  bool operator==(const ThreadAccessTable &Other) const = default;
};

/// The cross-thread metadata of a compacted concurrent WPP: everything
/// the race detector needs, none of the control flow.
struct ConcurrencyInfo {
  /// Upper bound on the threads an archive may hold. The happens-before
  /// build gives each of N timelines an N-wide clock row, so the reader
  /// rejects a THRD section that claims more (a few bytes cannot demand
  /// memory quadratic in their length; at the cap the first rows take
  /// 4 MiB), and the writer refuses more threads rather than write an
  /// archive that would not read back.
  static constexpr uint32_t MaxThreads = 1024;

  uint32_t FunctionCount = 0; ///< Real (per-thread) function-id space.
  std::vector<ThreadInfo> Threads;
  HbEdgeRuns Edges; ///< In derivation order (see deriveHbEdges).
  std::vector<ThreadAccessTable> Accesses; ///< Parallel to Threads.

  bool operator==(const ConcurrencyInfo &Other) const = default;
};

/// A compacted concurrent WPP: the merged thread-major body plus the
/// concurrency metadata.
struct ConcurrentWpp {
  TwppWpp Body;
  ConcurrencyInfo Conc;
};

/// Builds the per-thread access tables from a trace's access stream.
std::vector<ThreadAccessTable> buildAccessTables(const ConcurrentTrace &Trace);

/// Compacts every thread of \p Trace in thread order and derives the
/// happens-before edges.
ConcurrentWpp compactConcurrentWpp(const ConcurrentTrace &Trace);

/// Extracts thread \p ThreadIndex's single-threaded compacted WPP from
/// the merged body (virtual ids sliced back to the real function space).
TwppWpp threadBody(const ConcurrentWpp &Wpp, uint32_t ThreadIndex);

/// Reconstructs thread \p ThreadIndex's original RawTrace from the
/// merged body — the concurrent round-trip guarantee.
RawTrace reconstructThreadTrace(const ConcurrentWpp &Wpp,
                                uint32_t ThreadIndex);

} // namespace twpp

#endif // TWPP_WPP_CONCURRENT_H
