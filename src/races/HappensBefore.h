//===- races/HappensBefore.h - Edge-driven clock timelines ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds, from the archive's happens-before edge list, each thread's
/// clock *timeline*: an ordered list of checkpoints (Time, Clock) where
/// the clock governing an event at per-thread time t is the clock of the
/// last checkpoint with Time < t. Clocks change only at incoming-edge
/// targets, so a thread's 1..N block clock splits into *segments* of
/// constant vector clock. A timeline is two flat arrays — checkpoint
/// times and one ThreadCount-wide row of clock components per
/// checkpoint — so building one allocates per thread, not per
/// checkpoint.
///
/// Component j of a row held at thread i is the largest thread-j time
/// known, through happens-before edges, to precede the events the row
/// governs. Rows only grow along a timeline (each checkpoint starts as a
/// copy of the previous row and joins an edge source into it), so every
/// component is monotone in the checkpoint index. The compacted race
/// engine relies on that monotonicity: it compresses the segment bounds
/// and each opposite-thread component into arithmetic stretches and
/// counts ordered access pairs stretch by stretch, never segment by
/// segment (docs/RACES.md).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_RACES_HAPPENSBEFORE_H
#define TWPP_RACES_HAPPENSBEFORE_H

#include "trace/ThreadEvents.h"
#include "wpp/Concurrent.h"

#include <vector>

namespace twpp::races {

/// One thread's timeline. Times[0] is always 0 with an all-zero row;
/// times are strictly increasing. Events of the thread with time > Times[i]
/// know row i (their own component is implicit — an event at time t
/// always knows its own past 1..t-1).
struct ThreadTimeline {
  uint32_t Width = 0;            ///< Components per row (the thread count).
  std::vector<uint32_t> Times;   ///< Checkpoint times.
  std::vector<uint32_t> Clocks;  ///< Times.size() rows of Width components.

  size_t size() const { return Times.size(); }

  /// Component \p Thread of checkpoint \p Index's clock.
  uint32_t component(size_t Index, size_t Thread) const {
    return Clocks[Index * Width + Thread];
  }

  /// The checkpoint governing an event at per-thread time \p Time (>= 1):
  /// the last one with Times[i] < \p Time.
  size_t checkpointForEvent(uint32_t Time) const;

  /// The thread's state after completing \p Time block events: the last
  /// checkpoint with Times[i] <= \p Time (what an edge from the thread
  /// at \p Time carries).
  size_t checkpointAfter(uint32_t Time) const;
};

/// The happens-before relation in checkpoint form.
struct HappensBefore {
  std::vector<ThreadTimeline> Threads;
  /// Indices (into the input edge list) of edges whose target time was
  /// not monotone with the edges already applied to that thread — a
  /// structurally invalid archive. Race verdicts over such input are
  /// unreliable; the verifier turns these into twpp-race-clock-monotone
  /// diagnostics.
  std::vector<uint32_t> OutOfOrderEdges;
};

/// Single pass over the edge runs in list order. Edge order is trusted
/// to be the derivation order (each edge's source clock is final when the
/// edge appears); per-thread target times must be non-decreasing. Each
/// timeline is sized up front to what the runs that target its thread can
/// add (a run whose target time does not step forward adds at most one
/// checkpoint, and no thread gains more than one per block), so the build
/// does not grow its arrays edge by edge. An edge whose target time is
/// past its thread's block count orders none of the thread's events and
/// adds no checkpoint; an edge naming a thread outside the table is
/// skipped and listed in OutOfOrderEdges.
HappensBefore buildHappensBefore(const ConcurrencyInfo &Conc);

} // namespace twpp::races

#endif // TWPP_RACES_HAPPENSBEFORE_H
