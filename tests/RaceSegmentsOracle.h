//===- tests/RaceSegmentsOracle.h - Segment-pair race engine ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The segment-by-segment race engine, kept as a reference for the
/// stretch-wise census in races/RaceDetect.cpp. It builds eight prefix
/// count vectors per shared address, one entry per constant-clock
/// segment, and sums the ordered pairs segment by segment; the witness
/// search probes every B segment that holds an access for the first A
/// segment that holds one. Its cost is linear in segments per address,
/// so it checks the production engine at scales where the quadratic
/// detectRacesOracle is too slow. Its report must equal the production
/// engine's in every race, PairCount, RacyPairs, PairsCovered and
/// Segments; only SegmentPairs counts different work.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_RACESEGMENTSORACLE_H
#define TWPP_TESTS_RACESEGMENTSORACLE_H

#include "races/RaceDetect.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace twpp::oracle {

namespace segments {

/// A thread's constant-clock segments: segment i covers per-thread times
/// (Bounds[i], Bounds[i+1]] under checkpoint i's clock.
struct SegmentList {
  std::vector<uint32_t> Bounds;
  size_t Count = 0;

  size_t size() const { return Count; }
};

inline SegmentList buildSegments(const races::ThreadTimeline &Timeline,
                                 uint64_t N) {
  SegmentList Out;
  for (uint32_t Time : Timeline.Times) {
    if (Time >= N)
      break; // a checkpoint at (or past) N governs no events
    Out.Bounds.push_back(Time);
    ++Out.Count;
  }
  if (Out.Count != 0)
    Out.Bounds.push_back(static_cast<uint32_t>(N));
  return Out;
}

/// Counts of Set elements <= each position, for ascending \p Positions.
inline std::vector<uint64_t>
prefixCounts(const TimestampSet &Set, const std::vector<uint32_t> &Positions) {
  std::vector<uint64_t> Out(Positions.size(), 0);
  const std::vector<SeriesRun> &Runs = Set.runs();
  size_t R = 0;
  uint64_t Before = 0;
  for (size_t I = 0; I != Positions.size(); ++I) {
    uint32_t P = Positions[I];
    while (R != Runs.size() && Runs[R].Hi <= P) {
      Before += Runs[R].count();
      ++R;
    }
    uint64_t C = Before;
    if (R != Runs.size() && Runs[R].Lo <= P)
      C += (static_cast<uint64_t>(P) - Runs[R].Lo) / Runs[R].Step + 1;
    Out[I] = C;
  }
  return Out;
}

using PairTuple = std::tuple<uint32_t, uint8_t, uint32_t, uint8_t>;

constexpr PairTuple NoPair{std::numeric_limits<uint32_t>::max(), 2,
                           std::numeric_limits<uint32_t>::max(), 2};

/// First element of \p Set in [Lo, Hi], or 0 when none.
inline uint32_t firstInRange(const TimestampSet &Set, uint32_t Lo,
                             uint32_t Hi) {
  if (Lo > Hi)
    return 0;
  Timestamp T = Set.firstAtLeast(Lo);
  return (T != 0 && T <= Hi) ? T : 0;
}

/// The lexicographically first racy pair within one segment pair, or
/// NoPair.
inline PairTuple segmentPairCandidate(const AddressAccess &A,
                                      const AddressAccess &B, uint32_t LoA,
                                      uint32_t HiA, uint32_t LoB,
                                      uint32_t HiB) {
  PairTuple Best = NoPair;
  uint32_t TbW = firstInRange(B.Writes, LoB, HiB);
  uint32_t TbR = firstInRange(B.Reads, LoB, HiB);
  uint32_t TbAny = 0;
  uint8_t KbAny = 0;
  if (TbW != 0 && (TbR == 0 || TbW <= TbR)) {
    TbAny = TbW;
    KbAny = 0;
  } else if (TbR != 0) {
    TbAny = TbR;
    KbAny = 1;
  }
  uint32_t TaW = firstInRange(A.Writes, LoA, HiA);
  if (TaW != 0 && TbAny != 0)
    Best = std::min(Best, PairTuple{TaW, 0, TbAny, KbAny});
  uint32_t TaR = firstInRange(A.Reads, LoA, HiA);
  if (TaR != 0 && TbW != 0)
    Best = std::min(Best, PairTuple{TaR, 1, TbW, 0});
  return Best;
}

} // namespace segments

/// The segment-pair engine: same report as races::detectRacesCompacted,
/// with SegmentPairs counting segment visits of the prefix-count sweep
/// plus segment pairs probed for a witness.
inline races::RaceReport detectRacesBySegments(const ConcurrencyInfo &Conc) {
  using namespace segments;
  races::RaceReport Report;
  size_t ThreadCount = Conc.Threads.size();
  races::HappensBefore Hb = races::buildHappensBefore(Conc);

  std::vector<SegmentList> Segs(ThreadCount);
  for (size_t T = 0; T != ThreadCount; ++T) {
    Segs[T] = buildSegments(Hb.Threads[T], Conc.Threads[T].BlockCount);
    Report.Stats.Segments += Segs[T].size();
  }

  for (uint32_t TA = 0; TA != ThreadCount; ++TA) {
    for (uint32_t TB = TA + 1; TB != ThreadCount; ++TB) {
      const SegmentList &SA = Segs[TA];
      const SegmentList &SB = Segs[TB];
      if (SA.size() == 0 || SB.size() == 0)
        continue;
      // Per-segment clock views of the opposite thread; monotone along
      // program order, so prefixCounts sweeps them in one pass.
      std::vector<uint32_t> CaOfB(SA.size()), CbOfA(SB.size());
      for (size_t I = 0; I != SA.size(); ++I)
        CaOfB[I] = Hb.Threads[TA].component(I, TB);
      for (size_t J = 0; J != SB.size(); ++J)
        CbOfA[J] = Hb.Threads[TB].component(J, TA);

      const std::vector<AddressAccess> &AccA = Conc.Accesses[TA].Accesses;
      const std::vector<AddressAccess> &AccB = Conc.Accesses[TB].Accesses;
      size_t IA = 0, IB = 0;
      while (IA != AccA.size() && IB != AccB.size()) {
        if (AccA[IA].Addr < AccB[IB].Addr) {
          ++IA;
          continue;
        }
        if (AccB[IB].Addr < AccA[IA].Addr) {
          ++IB;
          continue;
        }
        const AddressAccess &A = AccA[IA];
        const AddressAccess &B = AccB[IB];
        ++IA;
        ++IB;

        uint64_t NWA = A.Writes.count(), NRA = A.Reads.count();
        uint64_t NWB = B.Writes.count(), NRB = B.Reads.count();
        Report.Stats.PairsCovered += (NWA + NRA) * (NWB + NRB);
        if (NWA + NWB == 0)
          continue; // read-read only

        std::vector<uint64_t> PrefWAatB = prefixCounts(A.Writes, CbOfA);
        std::vector<uint64_t> PrefRAatB = prefixCounts(A.Reads, CbOfA);
        std::vector<uint64_t> PrefWBatA = prefixCounts(B.Writes, CaOfB);
        std::vector<uint64_t> PrefRBatA = prefixCounts(B.Reads, CaOfB);
        std::vector<uint64_t> PrefWAbounds = prefixCounts(A.Writes, SA.Bounds);
        std::vector<uint64_t> PrefRAbounds = prefixCounts(A.Reads, SA.Bounds);
        std::vector<uint64_t> PrefWBbounds = prefixCounts(B.Writes, SB.Bounds);
        std::vector<uint64_t> PrefRBbounds = prefixCounts(B.Reads, SB.Bounds);

        int64_t Racy = static_cast<int64_t>(NWA * (NWB + NRB) + NRA * NWB);
        for (size_t J = 0; J != SB.size(); ++J) {
          uint64_t SegWB = PrefWBbounds[J + 1] - PrefWBbounds[J];
          uint64_t SegRB = PrefRBbounds[J + 1] - PrefRBbounds[J];
          Racy -= static_cast<int64_t>(PrefWAatB[J] * (SegWB + SegRB) +
                                       PrefRAatB[J] * SegWB);
        }
        for (size_t I = 0; I != SA.size(); ++I) {
          uint64_t SegWA = PrefWAbounds[I + 1] - PrefWAbounds[I];
          uint64_t SegRA = PrefRAbounds[I + 1] - PrefRAbounds[I];
          Racy -= static_cast<int64_t>(SegWA * (PrefWBatA[I] + PrefRBatA[I]) +
                                       SegRA * PrefWBatA[I]);
        }
        Report.Stats.SegmentPairs += SA.size() + SB.size();
        if (Racy <= 0)
          continue;

        // The earliest racy A-time lives in the first A segment yielding
        // any candidate; only then are B's segments scanned, clipped to
        // the mutually-unordered region.
        PairTuple Best = NoPair;
        for (size_t I = 0; I != SA.size() && Best == NoPair; ++I) {
          if (PrefWAbounds[I + 1] - PrefWAbounds[I] +
                  (PrefRAbounds[I + 1] - PrefRAbounds[I]) ==
              0)
            continue;
          uint32_t Ca = CaOfB[I];
          for (size_t J = 0; J != SB.size(); ++J) {
            if (PrefWBbounds[J + 1] - PrefWBbounds[J] +
                    (PrefRBbounds[J + 1] - PrefRBbounds[J]) ==
                0)
              continue;
            Report.Stats.SegmentPairs += 1;
            uint32_t LoA = std::max(SA.Bounds[I] + 1, CbOfA[J] + 1);
            uint32_t LoB = std::max(SB.Bounds[J] + 1, Ca + 1);
            Best = std::min(Best,
                            segmentPairCandidate(A, B, LoA, SA.Bounds[I + 1],
                                                 LoB, SB.Bounds[J + 1]));
          }
        }
        if (Best == NoPair)
          continue;
        races::RacePair Race;
        Race.Addr = A.Addr;
        Race.ThreadA = TA;
        Race.ThreadB = TB;
        Race.TimeA = std::get<0>(Best);
        Race.KindA = std::get<1>(Best);
        Race.TimeB = std::get<2>(Best);
        Race.KindB = std::get<3>(Best);
        Race.PairCount = static_cast<uint64_t>(Racy);
        Report.Stats.RacyPairs += Race.PairCount;
        Report.Races.push_back(Race);
      }
    }
  }
  std::sort(Report.Races.begin(), Report.Races.end(),
            [](const races::RacePair &X, const races::RacePair &Y) {
              return std::make_tuple(X.Addr, X.ThreadA, X.ThreadB) <
                     std::make_tuple(Y.Addr, Y.ThreadA, Y.ThreadB);
            });
  return Report;
}

} // namespace twpp::oracle

#endif // TWPP_TESTS_RACESEGMENTSORACLE_H
