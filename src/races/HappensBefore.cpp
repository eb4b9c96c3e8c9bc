//===- races/HappensBefore.cpp - Edge-driven clock timelines --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "races/HappensBefore.h"

#include <algorithm>
#include <cassert>

using namespace twpp;
using namespace twpp::races;

size_t ThreadTimeline::checkpointForEvent(uint32_t Time) const {
  assert(Time >= 1 && "event times are 1-based");
  return std::lower_bound(Times.begin(), Times.end(), Time) - Times.begin() -
         1;
}

size_t ThreadTimeline::checkpointAfter(uint32_t Time) const {
  return std::upper_bound(Times.begin(), Times.end(), Time) - Times.begin() -
         1;
}

HappensBefore races::buildHappensBefore(const ConcurrencyInfo &Conc) {
  const size_t ThreadCount = Conc.Threads.size();
  // Checkpoints each thread can gain from the edges applied to it: one
  // per run whose target time stands still or steps back (only its first
  // edge can move the clock forward), one per edge of a run whose target
  // time steps forward, and never more than one per time in 0..N. The
  // timelines are sized to that bound up front and trimmed at the end, so
  // the edges write rows in place and rows never move. (Appending a row
  // per checkpoint measured slower: the append costs more than the row.)
  std::vector<size_t> Size(ThreadCount, 1);
  for (const HbEdgeRun &R : Conc.Edges.runs())
    if (R.First.FromThread < ThreadCount && R.First.ToThread < ThreadCount)
      Size[R.First.ToThread] += R.ToStep > 0 ? R.Count : 1;
  HappensBefore Out;
  Out.Threads.resize(ThreadCount);
  for (size_t T = 0; T != ThreadCount; ++T) {
    ThreadTimeline &Timeline = Out.Threads[T];
    const size_t Rows = static_cast<size_t>(
        std::min<uint64_t>(Size[T] - 1, Conc.Threads[T].BlockCount) + 1);
    Timeline.Width = static_cast<uint32_t>(ThreadCount);
    Timeline.Times.resize(Rows);
    Timeline.Clocks.resize(Rows * ThreadCount);
    Size[T] = 1; // from here on, the checkpoints in use
  }
  // Per source thread, the checkpoint the previous edge from it read.
  // Derived edges leave each thread at non-decreasing times, so the hint
  // or its successor almost always answers without a search.
  std::vector<size_t> Hint(ThreadCount, 0);

  Conc.Edges.forEach([&](uint32_t I, const HbEdge &E) {
    if (E.FromThread >= ThreadCount || E.ToThread >= ThreadCount) {
      Out.OutOfOrderEdges.push_back(I);
      return;
    }
    // Source: the source thread's knowledge after FromTime block events,
    // plus its own elapsed time. Derivation order guarantees every edge
    // into the source at times <= FromTime was already applied.
    const ThreadTimeline &From = Out.Threads[E.FromThread];
    const uint32_t *FromTimes = From.Times.data();
    const size_t FromSize = Size[E.FromThread];
    size_t Src = Hint[E.FromThread];
    auto Governs = [FromTimes, FromSize, &E](size_t C) {
      return C < FromSize && FromTimes[C] <= E.FromTime &&
             (C + 1 == FromSize || FromTimes[C + 1] > E.FromTime);
    };
    if (!Governs(Src))
      Src = Governs(Src + 1)
                ? Src + 1
                : std::upper_bound(FromTimes, FromTimes + FromSize,
                                   E.FromTime) -
                      FromTimes - 1;
    Hint[E.FromThread] = Src;

    ThreadTimeline &To = Out.Threads[E.ToThread];
    size_t &ToSize = Size[E.ToThread];
    const uint32_t *Prev = To.Clocks.data() + (ToSize - 1) * ThreadCount;
    uint32_t *Row = To.Clocks.data() + (ToSize - 1) * ThreadCount;
    const uint32_t Last = To.Times[ToSize - 1];
    if (E.ToTime < Last) {
      // Non-monotone target: record it and fold into the final
      // checkpoint so verdicts stay total (the verifier flags the
      // archive as invalid regardless).
      Out.OutOfOrderEdges.push_back(I);
    } else if (E.ToTime > Last) {
      // A target past the thread's last block orders none of its events
      // (the verifier flags it); it gets no checkpoint.
      if (E.ToTime > Conc.Threads[E.ToThread].BlockCount)
        return;
      assert(ToSize < To.Times.size() && "sized from the runs above");
      To.Times[ToSize++] = E.ToTime; // a new checkpoint, Row moves to it
      Row += ThreadCount;
    }
    // The row is the previous row joined with the source row, plus the
    // source thread's own elapsed time.
    const uint32_t *SrcRow = From.Clocks.data() + Src * ThreadCount;
    for (size_t C = 0; C != ThreadCount; ++C)
      Row[C] = std::max(Prev[C], SrcRow[C]);
    Row[E.FromThread] = std::max(Row[E.FromThread], E.FromTime);
  });
  for (size_t T = 0; T != ThreadCount; ++T) {
    Out.Threads[T].Times.resize(Size[T]);
    Out.Threads[T].Clocks.resize(Size[T] * ThreadCount);
  }
  return Out;
}
