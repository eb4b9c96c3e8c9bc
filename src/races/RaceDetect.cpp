//===- races/RaceDetect.cpp - Race detection on the compacted form --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "races/RaceDetect.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <tuple>

using namespace twpp;
using namespace twpp::races;

namespace {

using PairTuple = std::tuple<uint32_t, uint8_t, uint32_t, uint8_t>;

constexpr PairTuple NoPair{std::numeric_limits<uint32_t>::max(), 2,
                           std::numeric_limits<uint32_t>::max(), 2};

using u128 = unsigned __int128;

/// Sum of floor((A * I + B) / M) over I in [0, N): the Euclid-like
/// reduction that swaps the roles of M and A each round, O(log M).
u128 floorSum(u128 N, u128 M, u128 A, u128 B) {
  u128 Sum = 0;
  while (true) {
    if (A >= M) {
      Sum += N * (N - 1) / 2 * (A / M);
      A %= M;
    }
    if (B >= M) {
      Sum += N * (B / M);
      B %= M;
    }
    u128 YMax = A * N + B;
    if (YMax < M)
      return Sum;
    N = YMax / M;
    B = YMax % M;
    std::swap(M, A);
  }
}

/// Smallest element of \p Set that is >= \p T, or 0 when none. \p T may
/// be one past the largest timestamp.
uint32_t firstAtLeast(const TimestampSet &Set, uint64_t T) {
  return T <= std::numeric_limits<Timestamp>::max()
             ? Set.firstAtLeast(static_cast<Timestamp>(T))
             : 0;
}

/// First element of \p Set in [Lo, Hi], or 0 when none.
uint32_t firstInRange(const TimestampSet &Set, uint64_t Lo, uint64_t Hi) {
  if (Lo > Hi)
    return 0;
  uint32_t T = firstAtLeast(Set, Lo);
  return (T != 0 && T <= Hi) ? T : 0;
}

/// First access of either kind at or after \p T, or 0.
uint32_t firstAccessAtLeast(const AddressAccess &Acc, uint64_t T) {
  uint32_t W = firstAtLeast(Acc.Writes, T);
  uint32_t R = firstAtLeast(Acc.Reads, T);
  return W == 0 ? R : (R == 0 ? W : std::min(W, R));
}

/// One thread's constant-clock segments seen from one other thread: the
/// first K checkpoints of its timeline (those before its block count N).
/// Segment i covers per-thread times (bound(i), bound(i+1)] and knows the
/// other thread up to clock(i).
struct SegmentView {
  const ThreadTimeline *Timeline = nullptr;
  size_t K = 0;
  uint32_t N = 0;
  size_t Other = 0;

  uint32_t bound(size_t I) const { return I < K ? Timeline->Times[I] : N; }
  uint32_t clock(size_t I) const { return Timeline->component(I, Other); }
  /// The segment holding event time \p T, for 1 <= T <= N.
  size_t segmentOf(uint32_t T) const {
    return Timeline->checkpointForEvent(T);
  }
};

/// A maximal run of consecutive segments whose bounds and clock are both
/// arithmetic: its segment j (0 <= j < Len) covers (Lo + j * Step,
/// Lo + (j + 1) * Step] and knows the other thread up to
/// Clock + j * ClockStep. Clocks only grow along a timeline, so
/// ClockStep is never negative.
struct Stretch {
  uint64_t Lo = 0;
  uint64_t Step = 0;
  uint64_t Len = 0;
  uint64_t Clock = 0;
  uint64_t ClockStep = 0;

  uint64_t end() const { return Lo + Len * Step; }
};

void buildStretches(const SegmentView &View, std::vector<Stretch> &Out) {
  Out.clear();
  size_t I = 0;
  while (I != View.K) {
    Stretch S;
    S.Lo = View.bound(I);
    S.Step = View.bound(I + 1) - S.Lo;
    S.Clock = View.clock(I);
    size_t J = I + 1;
    if (J != View.K) {
      S.ClockStep = View.clock(J) - S.Clock;
      while (J != View.K && View.bound(J + 1) - View.bound(J) == S.Step &&
             View.clock(J) - View.clock(J - 1) == S.ClockStep)
        ++J;
    }
    S.Len = J - I;
    if (S.Len == 1)
      S.ClockStep = 0;
    Out.push_back(S);
    I = J;
  }
}

/// Prefix counts |Set ∩ [0, C]| for non-decreasing C: one cursor over
/// the runs, never a per-query search.
class PrefixCursor {
public:
  explicit PrefixCursor(const TimestampSet &Set) : Runs(Set.runs()) {}

  void seek(uint64_t C) {
    while (R != Runs.size() && Runs[R].Hi <= C) {
      Before += Runs[R].count();
      ++R;
    }
  }

  /// After seek(C): the run that C sits below or inside (Hi > C), or
  /// nullptr when C is past every run.
  const SeriesRun *run() const { return R != Runs.size() ? &Runs[R] : nullptr; }
  /// Elements in the runs before run().
  uint64_t before() const { return Before; }

private:
  const std::vector<SeriesRun> &Runs;
  size_t R = 0;
  uint64_t Before = 0;
};

/// The ordered-pair sum of one side: over the elements y of \p Own that
/// fall in some segment, the number of \p Other elements at or below the
/// other thread's time that y's segment already knows — the pairs
/// (x, y) with x ordered before y. Work is per (stretch, run) piece and
/// residue class, never per segment; \p Terms counts the classes summed.
class OrderedSum {
public:
  OrderedSum(const std::vector<Stretch> &Side, const TimestampSet &Other,
             uint64_t &Terms)
      : Side(Side), X(Other), Terms(Terms) {}

  uint64_t over(const TimestampSet &Own) {
    uint64_t Sum = 0;
    size_t S = 0;
    for (const SeriesRun &Run : Own.runs()) {
      // Time 0 lies in no segment.
      uint64_t T = Run.Lo != 0 ? Run.Lo : Run.Step;
      while (T <= Run.Hi) {
        if (S == Side.size() || T <= Side[S].Lo)
          S = 0; // past the end or unsorted runs: search from the start
        S = std::partition_point(
                Side.begin() + S, Side.end(),
                [T](const Stretch &St) { return St.end() < T; }) -
            Side.begin();
        if (S == Side.size())
          break; // past the thread's block count: no segment holds it
        const Stretch &St = Side[S];
        uint64_t Last = std::min<uint64_t>(Run.Hi, St.end());
        Last = T + (Last - T) / Run.Step * Run.Step;
        Sum += piece(St, T, Last, Run.Step);
        T = Last + Run.Step;
      }
    }
    return Sum;
  }

private:
  const std::vector<Stretch> &Side;
  PrefixCursor X;
  uint64_t &Terms;

  /// The run elements First, First + YStep, ..., Last, all inside \p St.
  /// The first and last segments they touch may be clipped by the run's
  /// ends; the segments between see the run's full periodic pattern.
  uint64_t piece(const Stretch &St, uint64_t First, uint64_t Last,
                 uint64_t YStep) {
    uint64_t Ja = (First - St.Lo - 1) / St.Step;
    uint64_t Jb = (Last - St.Lo - 1) / St.Step;
    uint64_t Sum = segments(St, Ja, Ja, First, Last, YStep);
    if (Jb > Ja + 1)
      Sum += segments(St, Ja + 1, Jb - 1, First, Last, YStep);
    if (Jb > Ja)
      Sum += segments(St, Jb, Jb, First, Last, YStep);
    return Sum;
  }

  /// Sum over segments j in [J0, J1] of St of count(j) * prefix(clock(j)),
  /// where count(j) is the number of run elements in segment j. Within
  /// [J0, J1] count(j) depends only on j mod P, P = YStep / gcd(Step,
  /// YStep); the prefix count is piecewise a floor of a linear function
  /// of j. Each constant-prefix or single-run sub-range is summed per
  /// residue class, in O(1) or one floor-sum.
  uint64_t segments(const Stretch &St, uint64_t J0, uint64_t J1,
                    uint64_t First, uint64_t Last, uint64_t YStep) {
    auto Count = [&](uint64_t J) -> uint64_t {
      uint64_t A = std::max(St.Lo + J * St.Step + 1, First);
      uint64_t B = std::min(St.Lo + (J + 1) * St.Step, Last);
      if (A > B)
        return 0;
      return (B - First) / YStep + 1 - (A - First + YStep - 1) / YStep;
    };
    const uint64_t P = YStep / std::gcd(St.Step, YStep);
    uint64_t Sum = 0;
    for (uint64_t J = J0; J <= J1;) {
      uint64_t C = St.Clock + J * St.ClockStep;
      X.seek(C);
      const SeriesRun *Run = X.run();
      // The last segment before the prefix count changes shape: the
      // clock reaching the run's first element (constant below it) or
      // its last (one floor inside it).
      bool Inside = Run && C >= Run->Lo;
      uint64_t End = J1;
      if (Run && St.ClockStep != 0)
        End = std::min(J1, J + ((Inside ? Run->Hi : Run->Lo) - 1 - C) /
                                   St.ClockStep);
      uint64_t Classes = std::min(P, End - J + 1);
      for (uint64_t R = 0; R != Classes; ++R) {
        uint64_t K = Count(J + R);
        if (K == 0)
          continue;
        ++Terms;
        uint64_t N = (End - J - R) / P + 1;
        u128 Prefix = u128(N) * X.before();
        if (Inside)
          Prefix += N + floorSum(N, Run->Step, St.ClockStep * P,
                                 C + R * St.ClockStep - Run->Lo);
        Sum += static_cast<uint64_t>(Prefix) * K;
      }
      J = End + 1;
    }
    return Sum;
  }
};

/// The lexicographically first racy pair within one segment pair, or
/// NoPair. The racy region of either side is the clip past what the
/// other segment's clock already ordered.
PairTuple segmentPairCandidate(const AddressAccess &A, const AddressAccess &B,
                               uint64_t LoA, uint64_t HiA, uint64_t LoB,
                               uint64_t HiB) {
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

/// The lexicographically first racy pair of a racy address. A-segments
/// are visited in order, jumping from access to access; for each, the
/// B-segments worth probing start at B's first access past what the A
/// segment knows of B, and end where B's clock of A passes the segment's
/// last time (clocks are monotone, so every later B-segment is ordered
/// before it). Later B-segments only clip the A side further, so the
/// probe also stops once their clip starts past the best A time found.
PairTuple firstRacyPair(const AddressAccess &A, const AddressAccess &B,
                        const SegmentView &SA, const SegmentView &SB,
                        uint64_t &Probes) {
  uint32_t NA = SA.N, NB = SB.N;
  for (uint32_t Ta = firstAccessAtLeast(A, 1); Ta != 0 && Ta <= NA;) {
    size_t I = SA.segmentOf(Ta);
    uint64_t LoSegA = uint64_t(SA.bound(I)) + 1, HiA = SA.bound(I + 1);
    uint64_t Ca = SA.clock(I);
    PairTuple Best = NoPair;
    for (uint32_t Tb = firstAccessAtLeast(B, Ca + 1); Tb != 0 && Tb <= NB;) {
      size_t J = SB.segmentOf(Tb);
      uint64_t Cb = SB.clock(J);
      if (Cb >= HiA)
        break;
      uint64_t LoA = std::max(LoSegA, Cb + 1);
      uint32_t FirstA = firstAccessAtLeast(A, LoA);
      if (FirstA == 0 || FirstA > HiA ||
          (Best != NoPair && FirstA > std::get<0>(Best)))
        break;
      ++Probes;
      uint64_t HiB = SB.bound(J + 1);
      Best = std::min(Best,
                      segmentPairCandidate(A, B, LoA, HiA,
                                           std::max<uint64_t>(Tb, Ca + 1),
                                           HiB));
      Tb = firstAccessAtLeast(B, HiB + 1);
    }
    if (Best != NoPair)
      return Best;
    Ta = firstAccessAtLeast(A, HiA + 1);
  }
  return NoPair;
}

void sortReport(RaceReport &Report) {
  std::sort(Report.Races.begin(), Report.Races.end(),
            [](const RacePair &X, const RacePair &Y) {
              return std::make_tuple(X.Addr, X.ThreadA, X.ThreadB) <
                     std::make_tuple(Y.Addr, Y.ThreadA, Y.ThreadB);
            });
}

} // namespace

RaceReport races::detectRacesCompacted(const ConcurrencyInfo &Conc) {
  obs::PhaseSpan Span("race_detect_compacted");
  RaceReport Report;
  const size_t ThreadCount = Conc.Threads.size();
  HappensBefore Hb = buildHappensBefore(Conc);

  std::vector<size_t> SegmentCount(ThreadCount);
  for (size_t T = 0; T != ThreadCount; ++T) {
    const std::vector<uint32_t> &Times = Hb.Threads[T].Times;
    SegmentCount[T] = std::lower_bound(Times.begin(), Times.end(),
                                       Conc.Threads[T].BlockCount) -
                      Times.begin();
    Report.Stats.Segments += SegmentCount[T];
  }

  std::vector<Stretch> StretchesA, StretchesB;
  for (uint32_t TA = 0; TA != ThreadCount; ++TA) {
    for (uint32_t TB = TA + 1; TB != ThreadCount; ++TB) {
      if (SegmentCount[TA] == 0 || SegmentCount[TB] == 0)
        continue;
      // Each side's segments with the opposite thread's clock component.
      const SegmentView SA{&Hb.Threads[TA], SegmentCount[TA],
                           static_cast<uint32_t>(Conc.Threads[TA].BlockCount),
                           TB};
      const SegmentView SB{&Hb.Threads[TB], SegmentCount[TB],
                           static_cast<uint32_t>(Conc.Threads[TB].BlockCount),
                           TA};
      bool Built = false;

      // Sorted-merge the two threads' address tables.
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
        if (!Built) {
          buildStretches(SA, StretchesA);
          buildStretches(SB, StretchesB);
          Built = true;
        }

        // Candidate pairs with at least one write, minus the ordered
        // ones: a pair (ta, tb) with ta <= clock_b(tb)[TA] is ordered
        // A-before-B (and symmetrically), and a consistent edge set never
        // orders a pair both ways.
        uint64_t &Terms = Report.Stats.SegmentPairs;
        uint64_t OrderedAB =
            OrderedSum(StretchesB, A.Writes, Terms).over(B.Writes) +
            OrderedSum(StretchesB, A.Writes, Terms).over(B.Reads) +
            OrderedSum(StretchesB, A.Reads, Terms).over(B.Writes);
        uint64_t OrderedBA =
            OrderedSum(StretchesA, B.Writes, Terms).over(A.Writes) +
            OrderedSum(StretchesA, B.Reads, Terms).over(A.Writes) +
            OrderedSum(StretchesA, B.Writes, Terms).over(A.Reads);
        int64_t Racy = static_cast<int64_t>(NWA * (NWB + NRB) + NRA * NWB -
                                            OrderedAB - OrderedBA);
        if (Racy <= 0)
          continue;

        PairTuple Best = firstRacyPair(A, B, SA, SB, Terms);
        if (Best == NoPair)
          continue; // inconsistent edges; verifier owns the diagnosis
        RacePair Race;
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
  sortReport(Report);

  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    M.counter(obs::names::RacesRuns).add();
    M.counter(obs::names::RacesSegments).add(Report.Stats.Segments);
    M.counter(obs::names::RacesSegmentPairs).add(Report.Stats.SegmentPairs);
    M.counter(obs::names::RacesPairsCovered).add(Report.Stats.PairsCovered);
    M.counter(obs::names::RacesFound).add(Report.Races.size());
    M.counter(obs::names::RacesRacyPairs).add(Report.Stats.RacyPairs);
  }
  return Report;
}

RaceReport races::detectRacesOracle(const ConcurrencyInfo &Conc) {
  obs::PhaseSpan Span("race_detect_oracle");
  RaceReport Report;
  size_t ThreadCount = Conc.Threads.size();
  HappensBefore Hb = buildHappensBefore(Conc);

  // Decompress: every access set becomes explicit (time, kind) events,
  // every event gets the index of its governing checkpoint.
  struct OracleEvent {
    uint32_t Time;
    uint8_t Kind;
    uint32_t Checkpoint;
  };
  struct OracleAddr {
    Address Addr;
    std::vector<OracleEvent> Events; // sorted (Time, Kind)
  };
  std::vector<std::vector<OracleAddr>> Expanded(ThreadCount);
  for (size_t T = 0; T != ThreadCount; ++T) {
    const std::vector<uint32_t> &Times = Hb.Threads[T].Times;
    for (const AddressAccess &Acc : Conc.Accesses[T].Accesses) {
      OracleAddr Out;
      Out.Addr = Acc.Addr;
      std::vector<Timestamp> Writes = Acc.Writes.toVector();
      std::vector<Timestamp> Reads = Acc.Reads.toVector();
      size_t IW = 0, IR = 0;
      uint32_t Cp = 0; // events ascend, so the checkpoint cursor only moves
      while (IW != Writes.size() || IR != Reads.size()) {
        bool TakeWrite =
            IR == Reads.size() ||
            (IW != Writes.size() && Writes[IW] <= Reads[IR]);
        uint32_t Time = TakeWrite ? Writes[IW++] : Reads[IR++];
        while (Cp + 1 != Times.size() && Times[Cp + 1] < Time)
          ++Cp;
        Out.Events.push_back({Time, TakeWrite ? uint8_t(0) : uint8_t(1), Cp});
      }
      Expanded[T].push_back(std::move(Out));
    }
  }

  for (uint32_t TA = 0; TA != ThreadCount; ++TA) {
    for (uint32_t TB = TA + 1; TB != ThreadCount; ++TB) {
      const ThreadTimeline &TimelineA = Hb.Threads[TA];
      const ThreadTimeline &TimelineB = Hb.Threads[TB];
      size_t IA = 0, IB = 0;
      const std::vector<OracleAddr> &AddrsA = Expanded[TA];
      const std::vector<OracleAddr> &AddrsB = Expanded[TB];
      while (IA != AddrsA.size() && IB != AddrsB.size()) {
        if (AddrsA[IA].Addr < AddrsB[IB].Addr) {
          ++IA;
          continue;
        }
        if (AddrsB[IB].Addr < AddrsA[IA].Addr) {
          ++IB;
          continue;
        }
        const OracleAddr &A = AddrsA[IA];
        const OracleAddr &B = AddrsB[IB];
        ++IA;
        ++IB;
        Report.Stats.PairsCovered +=
            static_cast<uint64_t>(A.Events.size()) * B.Events.size();
        uint64_t Count = 0;
        PairTuple Best = NoPair;
        for (const OracleEvent &Ea : A.Events) {
          uint32_t CaB = TimelineA.component(Ea.Checkpoint, TB);
          for (const OracleEvent &Eb : B.Events) {
            if (Ea.Kind == 1 && Eb.Kind == 1)
              continue;
            if (Ea.Time <= TimelineB.component(Eb.Checkpoint, TA))
              continue; // A-event ordered before B-event
            if (Eb.Time <= CaB)
              continue; // B-event ordered before A-event
            ++Count;
            Best = std::min(Best, PairTuple{Ea.Time, Ea.Kind, Eb.Time,
                                            Eb.Kind});
          }
        }
        if (Count == 0)
          continue;
        RacePair Race;
        Race.Addr = A.Addr;
        Race.ThreadA = TA;
        Race.ThreadB = TB;
        Race.TimeA = std::get<0>(Best);
        Race.KindA = std::get<1>(Best);
        Race.TimeB = std::get<2>(Best);
        Race.KindB = std::get<3>(Best);
        Race.PairCount = Count;
        Report.Stats.RacyPairs += Count;
        Report.Races.push_back(Race);
      }
    }
  }
  sortReport(Report);
  return Report;
}

bool races::sameVerdict(const RaceReport &A, const RaceReport &B) {
  return A.Races == B.Races;
}

std::string races::renderRaceLines(const RaceReport &Report) {
  std::string Out;
  char Line[160];
  for (const RacePair &R : Report.Races) {
    std::snprintf(Line, sizeof(Line),
                  "race addr=0x%llx threads=%u,%u first=%c@%u/%c@%u pairs=%llu\n",
                  static_cast<unsigned long long>(R.Addr), R.ThreadA, R.ThreadB,
                  R.KindA == 0 ? 'W' : 'R', R.TimeA, R.KindB == 0 ? 'W' : 'R',
                  R.TimeB, static_cast<unsigned long long>(R.PairCount));
    Out += Line;
  }
  return Out;
}
