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
/// constant vector clock — about 5,200 per thread on average in the
/// pipeline bench's analyze workload, far fewer than its block events.
/// The compacted race engine does all of its work per segment pair; it
/// never looks inside a segment.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_RACES_HAPPENSBEFORE_H
#define TWPP_RACES_HAPPENSBEFORE_H

#include "races/VectorClock.h"
#include "trace/ThreadEvents.h"
#include "wpp/Concurrent.h"

#include <vector>

namespace twpp::races {

/// One clock change point: events of the owning thread with time > Time
/// know Clock (their own component is implicit — an event at time t
/// always knows its own past 1..t-1).
struct ClockCheckpoint {
  uint32_t Time = 0;
  VectorClock Clock;
};

/// One thread's timeline. Checkpoints[0] is always {0, bottom}; times
/// are strictly increasing.
struct ThreadTimeline {
  std::vector<ClockCheckpoint> Checkpoints;

  /// The clock governing an event at per-thread time \p Time (>= 1):
  /// the last checkpoint with Time < \p Time.
  const VectorClock &clockForEvent(uint32_t Time) const;

  /// The thread's state after completing \p Time block events: the last
  /// checkpoint with Time <= \p Time. Used for edge sources.
  const VectorClock &clockAfter(uint32_t Time) const;
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

/// Single pass over \p Edges in list order. Edge order is trusted to be
/// the derivation order (each edge's source clock is final when the edge
/// appears); per-thread target times must be non-decreasing.
HappensBefore buildHappensBefore(const ConcurrencyInfo &Conc);

} // namespace twpp::races

#endif // TWPP_RACES_HAPPENSBEFORE_H
