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
  HappensBefore Out;
  Out.Threads.resize(ThreadCount);
  for (ThreadTimeline &T : Out.Threads) {
    T.Width = static_cast<uint32_t>(ThreadCount);
    T.Times.push_back(0);
    T.Clocks.assign(ThreadCount, 0);
  }
  // Per source thread, the checkpoint the previous edge from it read.
  // Derived edges leave each thread at non-decreasing times, so the hint
  // or its successor almost always answers without a search.
  std::vector<size_t> Hint(ThreadCount, 0);

  for (uint32_t I = 0; I != Conc.Edges.size(); ++I) {
    const HbEdge &E = Conc.Edges[I];
    if (E.FromThread >= ThreadCount || E.ToThread >= ThreadCount) {
      Out.OutOfOrderEdges.push_back(I);
      continue;
    }
    // Source: the source thread's knowledge after FromTime block events,
    // plus its own elapsed time. Derivation order guarantees every edge
    // into the source at times <= FromTime was already applied.
    const ThreadTimeline &From = Out.Threads[E.FromThread];
    size_t Src = Hint[E.FromThread];
    auto Governs = [&From, &E](size_t C) {
      return C < From.size() && From.Times[C] <= E.FromTime &&
             (C + 1 == From.size() || From.Times[C + 1] > E.FromTime);
    };
    if (!Governs(Src))
      Src = Governs(Src + 1) ? Src + 1 : From.checkpointAfter(E.FromTime);
    Hint[E.FromThread] = Src;

    ThreadTimeline &To = Out.Threads[E.ToThread];
    const uint32_t Last = To.Times.back();
    if (E.ToTime < Last) {
      // Non-monotone target: record it and fold into the final
      // checkpoint so verdicts stay total (the verifier flags the
      // archive as invalid regardless).
      Out.OutOfOrderEdges.push_back(I);
    } else if (E.ToTime > Last) {
      To.Times.push_back(E.ToTime);
      To.Clocks.resize(To.Clocks.size() + ThreadCount);
      std::copy_n(To.Clocks.end() - 2 * ThreadCount, ThreadCount,
                  To.Clocks.end() - ThreadCount);
    }
    // Join the source row into the target's last row. Indices, not
    // pointers: the resize above may have moved the source's storage when
    // an edge runs from a thread to itself.
    const size_t Row = (To.size() - 1) * ThreadCount;
    const size_t SrcRow = Src * ThreadCount;
    for (size_t C = 0; C != ThreadCount; ++C)
      To.Clocks[Row + C] =
          std::max(To.Clocks[Row + C], From.Clocks[SrcRow + C]);
    To.Clocks[Row + E.FromThread] =
        std::max(To.Clocks[Row + E.FromThread], E.FromTime);
  }
  return Out;
}
