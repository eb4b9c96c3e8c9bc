//===- trace/ThreadEvents.h - Thread-aware WPP event model ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent extension of the WPP event model. The paper traces one
/// thread; a production service traces many. A ConcurrentTrace is a set of
/// per-thread RawTraces (each with its own 1-based block-event clock) plus
/// two cross-cutting streams recorded in one global interleaving order:
///
///  - SyncEvents: lock acquire/release and thread fork/join. A sync event
///    carries the acting thread's block count at the moment it fired, so
///    "time" in the concurrent model is always a per-thread TWPP timestamp
///    (the same 1..N clock the timestamp sets use).
///  - AccessEvents: per-address reads/writes, each attached to the block
///    event (1-based per-thread time) during which it executed.
///
/// From the sync stream we derive the cross-thread happens-before edges
/// that the archive stores and the race detector consumes: one edge per
/// inter-thread release->acquire handoff, fork and join. An edge
/// (T1, t1) -> (T2, t2) means every T1 event with time <= t1 happens
/// before every T2 event with time > t2.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TRACE_THREADEVENTS_H
#define TWPP_TRACE_THREADEVENTS_H

#include "trace/Events.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

namespace twpp {

/// Identifies a thread within a concurrent trace. Thread ids are dense:
/// thread i is Threads[i] of its ConcurrentTrace (thread 0 is main).
using ThreadId = uint32_t;

/// Identifies a lock object in the sync stream.
using LockId = uint32_t;

/// A traced memory address (opaque; only equality matters to the race
/// detector).
using Address = uint64_t;

/// One synchronization operation.
struct SyncEvent {
  enum class Kind : uint8_t {
    Acquire, ///< Thread acquires lock Object.
    Release, ///< Thread releases lock Object.
    Fork,    ///< Thread starts thread Object (before its first event).
    Join,    ///< Thread waits for thread Object (after its last event).
  };

  Kind EventKind;
  ThreadId Thread; ///< The acting thread.
  uint32_t Object; ///< LockId (Acquire/Release) or child ThreadId.
  uint32_t Time;   ///< Block events completed on Thread when this fired
                   ///< (0..N: syncs happen *between* block events).

  static SyncEvent acquire(ThreadId T, LockId L, uint32_t Time) {
    return {Kind::Acquire, T, L, Time};
  }
  static SyncEvent release(ThreadId T, LockId L, uint32_t Time) {
    return {Kind::Release, T, L, Time};
  }
  static SyncEvent fork(ThreadId Parent, ThreadId Child, uint32_t Time) {
    return {Kind::Fork, Parent, Child, Time};
  }
  static SyncEvent join(ThreadId Parent, ThreadId Child, uint32_t Time) {
    return {Kind::Join, Parent, Child, Time};
  }

  bool operator==(const SyncEvent &Other) const = default;
};

/// One memory access. Write sorts before Read so that the race reports'
/// lexicographic tie-break prefers the more severe access kind.
struct AccessEvent {
  enum class Kind : uint8_t { Write = 0, Read = 1 };

  Kind EventKind;
  ThreadId Thread;
  Address Addr;
  uint32_t Time; ///< 1-based per-thread time of the containing block event.

  static AccessEvent write(ThreadId T, Address A, uint32_t Time) {
    return {Kind::Write, T, A, Time};
  }
  static AccessEvent read(ThreadId T, Address A, uint32_t Time) {
    return {Kind::Read, T, A, Time};
  }

  bool operator==(const AccessEvent &Other) const = default;
};

/// One thread's slice of the execution: a complete single-threaded WPP.
struct ThreadTrace {
  ThreadId Id = 0;
  RawTrace Trace;

  bool operator==(const ThreadTrace &Other) const = default;
};

/// A complete concurrent WPP.
struct ConcurrentTrace {
  std::vector<ThreadTrace> Threads; ///< Threads[i].Id == i; 0 is main.
  std::vector<SyncEvent> Syncs;     ///< Global interleaving order.
  std::vector<AccessEvent> Accesses; ///< Sorted (Thread, Time, Addr, Kind).
  uint32_t FunctionCount = 0;        ///< Shared function-id space.

  bool operator==(const ConcurrentTrace &Other) const = default;

  /// Sum of per-thread block event counts.
  uint64_t blockEventCount() const;

  /// Structural sanity: dense thread ids, well-formed per-thread traces
  /// over the shared FunctionCount, sync times monotone per thread and
  /// within each thread's clock, mutex discipline (acquire of a held
  /// lock / release by a non-holder rejected), fork at most once per
  /// child and never of self, and access events in range and sorted.
  bool isWellFormed() const;
};

/// One derived cross-thread ordering edge: every FromThread event with
/// time <= FromTime happens before every ToThread event with
/// time > ToTime.
struct HbEdge {
  enum class Kind : uint8_t { Lock = 0, Fork = 1, Join = 2 };

  Kind EdgeKind;
  uint32_t FromThread;
  uint32_t FromTime;
  uint32_t ToThread;
  uint32_t ToTime;

  bool operator==(const HbEdge &Other) const = default;
};

/// A run of happens-before edges: Count edges of one (kind, from thread,
/// to thread) group whose edge indices and both times step by constants.
/// Member K (K < Count) is edge Index + K * IndexStep, with times
/// First.FromTime + K * FromStep and First.ToTime + K * ToStep. This is
/// the paper's l:h:s series applied to the edge list: a pipeline's
/// handoffs, which step through both clocks at a fixed stride, become a
/// handful of runs however long the trace runs.
struct HbEdgeRun {
  HbEdge First;
  uint32_t Index = 0;     ///< Edge index of member 0.
  uint32_t Count = 1;     ///< Members; always >= 1.
  uint32_t IndexStep = 0; ///< >= 1 when Count >= 2; 0 for a run of one.
  int64_t FromStep = 0;
  int64_t ToStep = 0;

  /// Member \p K's edge index.
  uint32_t indexAt(uint32_t K) const { return Index + K * IndexStep; }

  /// Member \p K.
  HbEdge at(uint32_t K) const {
    HbEdge E = First;
    E.FromTime = static_cast<uint32_t>(First.FromTime + K * FromStep);
    E.ToTime = static_cast<uint32_t>(First.ToTime + K * ToStep);
    return E;
  }

  bool operator==(const HbEdgeRun &Other) const = default;
};

/// The happens-before edge list as runs. Runs are ordered by their first
/// edge index, and each edge index belongs to exactly one run (an owner
/// table of one slot per edge records which), so the list keeps its
/// derivation order without storing one HbEdge per edge. Equality is
/// edge for edge: two lists cut into different runs compare equal when
/// they hold the same edges in the same order.
class HbEdgeRuns {
public:
  /// Upper bound on the edges an archive may hold. The reader rejects an
  /// HBEG section whose runs expand past it, so a few bytes of runs
  /// cannot demand an unbounded owner table, and the writer refuses a
  /// longer list rather than write one that would not read back.
  static constexpr uint32_t MaxEdges = 1u << 24;

  HbEdgeRuns() = default;
  /// Builds the runs by push_back, in list order. Implicit, so a derived
  /// edge vector assigns straight into ConcurrencyInfo::Edges.
  HbEdgeRuns(const std::vector<HbEdge> &Edges);

  /// Appends \p E as the next edge. It extends the open (most recently
  /// started) run of its (kind, from thread, to thread) group when its
  /// index step and both time steps match that run's; a run of one takes
  /// its steps from its second member. Otherwise \p E starts a new run,
  /// as it always does on a list placed by tile (which opens no run).
  void push_back(const HbEdge &E);

  /// Edges in the list.
  size_t size() const { return Owner.size(); }

  /// The runs, ordered by first edge index.
  const std::vector<HbEdgeRun> &runs() const { return Runs; }

  /// Calls \p Visit(index, edge) for every edge in list order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    std::vector<uint32_t> Next(Runs.size(), 0);
    for (uint32_t I = 0; I != Owner.size(); ++I) {
      const uint32_t R = Owner[I];
      Visit(I, Runs[R].at(Next[R]++));
    }
  }

  /// The list as one HbEdge per edge, in list order.
  std::vector<HbEdge> expand() const;

  /// Places runs read from an archive, given in file order with Index
  /// unset: each run's first edge goes to the lowest index that no
  /// earlier run covers, and the edge count is the sum of the counts.
  /// \returns false, leaving \p Out empty, when a count is zero, a run of
  /// two or more has a zero index step, the counts sum past MaxEdges, or
  /// a member lands past the edge count or on an index an earlier run
  /// covers. (Member times are the decoder's to check.)
  static bool tile(std::vector<HbEdgeRun> Runs, HbEdgeRuns &Out);

  bool operator==(const HbEdgeRuns &Other) const;

private:
  std::vector<HbEdgeRun> Runs;
  std::vector<uint32_t> Owner; ///< Owner[i]: the run holding edge i.
  /// (kind, from, to) -> index of the group's open run; filled by
  /// push_back only.
  std::map<std::tuple<uint8_t, uint32_t, uint32_t>, uint32_t> Open;
};

/// Derives the happens-before edge list from the sync stream, in sync
/// order (which every consumer relies on: an edge's source clock is final
/// by the time the edge appears):
///  - Acquire of lock L by T2 after a release by T1 != T2 yields
///    Lock (T1, releaseTime) -> (T2, acquireTime). Same-thread
///    re-acquires yield no edge (program order already covers them), and
///    the release->acquire chain makes the ordering transitive across
///    successive critical sections.
///  - Fork(P, C) at t yields Fork (P, t) -> (C, 0).
///  - Join(P, C) at t yields Join (C, N_C) -> (P, t) where N_C is the
///    child's total block count.
std::vector<HbEdge> deriveHbEdges(const ConcurrentTrace &Trace);

} // namespace twpp

#endif // TWPP_TRACE_THREADEVENTS_H
