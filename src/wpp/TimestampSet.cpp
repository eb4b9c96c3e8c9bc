//===- wpp/TimestampSet.cpp - Arithmetic-series timestamp sets ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/TimestampSet.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace twpp;

namespace {

/// fromSorted's greedy packing of the strictly increasing Sorted[0, N):
/// calls \p Emit once per run.
template <typename EmitFn>
void packRuns(const Timestamp *Sorted, size_t N, EmitFn &&Emit) {
  size_t I = 0;
  while (I < N) {
    assert(Sorted[I] > 0 && "timestamps must be positive");
    assert((I == 0 || Sorted[I] > Sorted[I - 1]) &&
           "timestamps must be strictly increasing");
    if (I + 1 == N) {
      Emit(SeriesRun{Sorted[I], Sorted[I], 1});
      break;
    }
    uint32_t Step = Sorted[I + 1] - Sorted[I];
    size_t J = I + 1;
    while (J + 1 < N && Sorted[J + 1] - Sorted[J] == Step)
      ++J;
    size_t RunLength = J - I + 1;
    if (RunLength == 2 && Step != 1) {
      // Two singletons (2 encoded ints) beat an l:h:s entry (3 ints).
      Emit(SeriesRun{Sorted[I], Sorted[I], 1});
      I += 1;
    } else {
      Emit(SeriesRun{Sorted[I], Sorted[J], Step});
      I = J + 1;
    }
  }
}

} // namespace

TimestampSet TimestampSet::fromSorted(const Timestamp *Sorted,
                                      const Timestamp *Last) {
  TimestampSet Set;
  size_t N = static_cast<size_t>(Last - Sorted);
  // Count the runs first, so the set is allocated once and exactly.
  size_t Runs = 0;
  packRuns(Sorted, N, [&Runs](const SeriesRun &) { ++Runs; });
  Set.Runs.reserve(Runs);
  packRuns(Sorted, N,
           [&Set](const SeriesRun &Run) { Set.Runs.push_back(Run); });
  if (obs::enabled()) {
    static obs::Counter &Sets =
        obs::metrics().counter(obs::names::TimestampSets);
    Sets.add();
  }
  // Scoped memory attribution: the run payload lands in whichever stage
  // opened a MemScope (dropped otherwise, so stage-level deepSize records
  // do not double count the series they already include).
  obs::memAllocCurrent(Set.Runs.size() * sizeof(SeriesRun));
  return Set;
}

TimestampSet TimestampSet::fromRun(Timestamp Lo, Timestamp Hi,
                                   uint32_t Step) {
  assert(Lo > 0 && Lo <= Hi && Step >= 1 && (Hi - Lo) % Step == 0 &&
         "malformed run");
  TimestampSet Set;
  Set.Runs.push_back({Lo, Hi, Lo == Hi ? 1u : Step});
  return Set;
}

uint64_t TimestampSet::count() const {
  uint64_t Total = 0;
  for (const SeriesRun &Run : Runs)
    Total += Run.count();
  return Total;
}

bool TimestampSet::contains(Timestamp T) const {
  for (const SeriesRun &Run : Runs) {
    if (Run.Lo > T)
      return false;
    if (Run.contains(T))
      return true;
  }
  return false;
}

Timestamp TimestampSet::firstAtLeast(Timestamp T) const {
  // Runs are disjoint and ascending, so their upper ends ascend too.
  auto It = std::partition_point(
      Runs.begin(), Runs.end(),
      [T](const SeriesRun &Run) { return Run.Hi < T; });
  if (It == Runs.end())
    return 0;
  if (It->Lo >= T)
    return It->Lo;
  uint64_t First =
      It->Lo +
      ((static_cast<uint64_t>(T) - It->Lo + It->Step - 1) / It->Step) *
          It->Step;
  if (First <= It->Hi)
    return static_cast<Timestamp>(First);
  return It + 1 != Runs.end() ? (It + 1)->Lo : 0;
}

std::vector<Timestamp> TimestampSet::toVector() const {
  std::vector<Timestamp> Out;
  Out.reserve(count());
  for (const SeriesRun &Run : Runs)
    for (uint64_t T = Run.Lo; T <= Run.Hi; T += Run.Step)
      Out.push_back(static_cast<Timestamp>(T));
  return Out;
}

TimestampSet TimestampSet::shifted(int64_t Delta) const {
  TimestampSet Out;
  shiftedInto(Delta, Out);
  return Out;
}

void TimestampSet::shiftedInto(int64_t Delta, TimestampSet &Out) const {
  Out.Runs.clear();
  Out.Runs.reserve(Runs.size());
  for (const SeriesRun &Run : Runs) {
    int64_t Lo = static_cast<int64_t>(Run.Lo) + Delta;
    int64_t Hi = static_cast<int64_t>(Run.Hi) + Delta;
    if (Hi <= 0)
      continue;
    if (Lo <= 0) {
      // Advance Lo to the first positive element of the run.
      int64_t Skip = (1 - Lo + Run.Step - 1) / Run.Step;
      Lo += Skip * Run.Step;
      if (Lo > Hi)
        continue;
    }
    Out.Runs.push_back({static_cast<Timestamp>(Lo),
                        static_cast<Timestamp>(Hi),
                        Lo == Hi ? 1u : Run.Step});
  }
}

namespace {

/// fromSorted's greedy packing, fed a strictly increasing element stream
/// as arithmetic pieces. A piece whose stride matches the open run extends
/// it in one step, so packing costs O(pieces), not O(elements), and the
/// result is run for run what fromSorted would build from the elements.
class RunPacker {
public:
  explicit RunPacker(std::vector<SeriesRun> &Out) : Out(Out) {}

  /// Appends {Lo, Lo+Step, ..., Hi}.
  void push(uint64_t Lo, uint64_t Hi, uint64_t Step) {
    for (;;) {
      if (Count >= 2 && Stride == Step &&
          Lo == static_cast<uint64_t>(Last) + Step) {
        Count += (Hi - Lo) / Step + 1;
        Last = static_cast<Timestamp>(Hi);
        return;
      }
      pushOne(static_cast<Timestamp>(Lo));
      if (Lo == Hi)
        return;
      Lo += Step;
    }
  }

  /// Closes the open run.
  void finish() {
    if (Count == 0)
      return;
    if (Count == 1) {
      Out.push_back({First, First, 1});
    } else if (Count == 2 && Stride != 1) {
      Out.push_back({First, First, 1});
      Out.push_back({Last, Last, 1});
    } else {
      Out.push_back({First, Last, Stride});
    }
    Count = 0;
  }

private:
  void pushOne(Timestamp T) {
    if (Count == 0) {
      First = Last = T;
      Count = 1;
    } else if (Count == 1) {
      Stride = T - Last;
      Last = T;
      Count = 2;
    } else if (T - Last == Stride) {
      Last = T;
      ++Count;
    } else if (Count == 2 && Stride != 1) {
      // Two singletons (2 encoded ints) beat an l:h:s entry (3 ints): the
      // second element opens the next run instead.
      Out.push_back({First, First, 1});
      First = Last;
      Stride = T - Last;
      Last = T;
    } else {
      Out.push_back({First, Last, Stride});
      First = Last = T;
      Count = 1;
    }
  }

  std::vector<SeriesRun> &Out;
  Timestamp First = 0, Last = 0;
  uint32_t Stride = 0;
  uint64_t Count = 0;
};

/// Pushes the elements of \p Run that lie in [Lo, Hi].
void pushClipped(const SeriesRun &Run, uint64_t Lo, uint64_t Hi,
                 RunPacker &Packer) {
  uint64_t Step = Run.Step;
  uint64_t First = Run.Lo;
  if (Lo > First)
    First += (Lo - First + Step - 1) / Step * Step;
  uint64_t Last = Run.Hi;
  if (Hi < Last)
    Last = Run.Lo + (Hi - Run.Lo) / Step * Step;
  if (First <= Last)
    Packer.push(First, Last, Step);
}

/// Inverse of \p A modulo \p M (gcd(A, M) == 1, M >= 1), by extended
/// Euclid.
uint64_t modInverse(uint64_t A, uint64_t M) {
  int64_t R0 = static_cast<int64_t>(M), R1 = static_cast<int64_t>(A % M);
  int64_t T0 = 0, T1 = 1;
  while (R1 != 0) {
    int64_t Q = R0 / R1;
    int64_t R2 = R0 - Q * R1;
    R0 = R1;
    R1 = R2;
    int64_t T2 = T0 - Q * T1;
    T0 = T1;
    T1 = T2;
  }
  return T0 < 0 ? static_cast<uint64_t>(T0 + static_cast<int64_t>(M))
                : static_cast<uint64_t>(T0);
}

/// Pushes A ∩ B for two overlapping runs. Two arithmetic series meet in
/// at most one arithmetic series, with stride lcm(step A, step B).
void meetRuns(const SeriesRun &A, const SeriesRun &B, RunPacker &Packer) {
  uint64_t Lo = std::max(A.Lo, B.Lo), Hi = std::min(A.Hi, B.Hi);
  if (A.Lo == A.Hi) {
    if (B.contains(A.Lo))
      Packer.push(A.Lo, A.Lo, 1);
    return;
  }
  if (B.Lo == B.Hi) {
    if (A.contains(B.Lo))
      Packer.push(B.Lo, B.Lo, 1);
    return;
  }
  if (A.Step == 1 || B.Step == 1) {
    pushClipped(A.Step == 1 ? B : A, Lo, Hi, Packer);
    return;
  }
  uint64_t Offset = A.Lo > B.Lo ? A.Lo - B.Lo : B.Lo - A.Lo;
  if (A.Step == B.Step) {
    if (Offset % A.Step == 0)
      pushClipped(A, Lo, Hi, Packer);
    return;
  }
  // Chinese remainder: x = A.Lo + StepA * K with StepA * K = B.Lo - A.Lo
  // (mod StepB), solvable iff gcd divides the offset.
  uint64_t StepA = A.Step, StepB = B.Step;
  uint64_t G = std::gcd(StepA, StepB);
  if (Offset % G != 0)
    return;
  uint64_t M = StepB / G;
  // (B.Lo - A.Lo) / G reduced into [0, M).
  uint64_t Residue = (Offset / G) % M;
  if (B.Lo < A.Lo && Residue != 0)
    Residue = M - Residue;
  uint64_t K = Residue * modInverse(StepA / G % M, M) % M;
  uint64_t Lcm = StepA * M; // < 2^64: both steps are below 2^32.
  unsigned __int128 X = A.Lo + static_cast<unsigned __int128>(StepA) * K;
  if (X < Lo)
    X += (Lo - X + Lcm - 1) / Lcm * static_cast<unsigned __int128>(Lcm);
  if (X > Hi)
    return;
  uint64_t First = static_cast<uint64_t>(X);
  // Two or more common elements imply Lcm <= Hi - Lo < 2^32.
  Packer.push(First, First + (Hi - First) / Lcm * Lcm, Lcm);
}

/// A position inside a run list, walking its elements in order.
struct RunCursor {
  const std::vector<SeriesRun> &Runs;
  size_t Index = 0;
  uint64_t At = 0;

  explicit RunCursor(const std::vector<SeriesRun> &Runs) : Runs(Runs) {
    if (!Runs.empty())
      At = Runs[0].Lo;
  }
  bool done() const { return Index == Runs.size(); }
  const SeriesRun &run() const { return Runs[Index]; }

  /// Moves to the first element greater than \p T (T >= At).
  void skipThrough(uint64_t T) {
    const SeriesRun &Run = Runs[Index];
    if (T >= Run.Hi) {
      if (++Index != Runs.size())
        At = Runs[Index].Lo;
      return;
    }
    At += ((T - At) / Run.Step + 1) * Run.Step;
  }

  /// Pushes every remaining element.
  void drain(RunPacker &Packer) {
    if (done())
      return;
    Packer.push(At, run().Hi, run().Step);
    while (++Index != Runs.size())
      Packer.push(Runs[Index].Lo, Runs[Index].Hi, Runs[Index].Step);
  }
};

} // namespace

TimestampSet TimestampSet::intersect(const TimestampSet &Other) const {
  TimestampSet Out;
  intersectInto(Other, Out);
  return Out;
}

void TimestampSet::intersectInto(const TimestampSet &Other,
                                 TimestampSet &Out) const {
  Out.Runs.clear();
  if (empty() || Other.empty())
    return;
  // Fast path: identical sets (common during query propagation when a
  // whole timestamp vector survives a node).
  if (*this == Other) {
    Out.Runs = Runs;
    return;
  }
  // Two-pointer sweep over the run lists: each overlapping pair of runs
  // contributes at most one series.
  RunPacker Packer(Out.Runs);
  size_t I = 0, J = 0;
  while (I != Runs.size() && J != Other.Runs.size()) {
    const SeriesRun &A = Runs[I], &B = Other.Runs[J];
    if (A.Hi < B.Lo) {
      ++I;
    } else if (B.Hi < A.Lo) {
      ++J;
    } else {
      meetRuns(A, B, Packer);
      I += A.Hi <= B.Hi;
      J += B.Hi <= A.Hi;
    }
  }
  Packer.finish();
}

TimestampSet TimestampSet::unite(const TimestampSet &Other) const {
  TimestampSet Out;
  uniteInto(Other, Out);
  return Out;
}

void TimestampSet::uniteInto(const TimestampSet &Other,
                             TimestampSet &Out) const {
  if (empty()) {
    Out.Runs = Other.Runs;
    return;
  }
  if (Other.empty()) {
    Out.Runs = Runs;
    return;
  }
  Out.Runs.clear();
  RunPacker Packer(Out.Runs);
  RunCursor A(Runs), B(Other.Runs);
  while (!A.done() && !B.done()) {
    if (A.At != B.At) {
      // Everything of the lower side below the other's next element goes
      // through as one piece (a whole run where the ranges do not overlap).
      RunCursor &Low = A.At < B.At ? A : B;
      uint64_t Bound = std::max(A.At, B.At);
      const SeriesRun &Run = Low.run();
      uint64_t Last =
          std::min<uint64_t>(Run.Hi, Low.At + (Bound - 1 - Low.At) /
                                                  Run.Step * Run.Step);
      Packer.push(Low.At, Last, Run.Step);
      Low.skipThrough(Last);
      continue;
    }
    // Both runs hold At. Where one stride divides the other, the finer run
    // already holds every element of the coarser one up to the nearer Hi;
    // otherwise the runs interleave and only At is common ground.
    const SeriesRun &RunA = A.run(), &RunB = B.run();
    uint64_t Hi = std::min(RunA.Hi, RunB.Hi);
    uint64_t At = A.At;
    if (RunB.Step % RunA.Step == 0 || RunA.Step % RunB.Step == 0) {
      uint64_t Step = std::min(RunA.Step, RunB.Step);
      Packer.push(At, At + (Hi - At) / Step * Step, Step);
      A.skipThrough(Hi);
      B.skipThrough(Hi);
    } else {
      Packer.push(At, At, 1);
      A.skipThrough(At);
      B.skipThrough(At);
    }
  }
  A.drain(Packer);
  B.drain(Packer);
  Packer.finish();
}

std::vector<int64_t> TimestampSet::encodeSigned() const {
  std::vector<int64_t> Out;
  Out.reserve(encodedValueCount());
  for (const SeriesRun &Run : Runs) {
    if (Run.Lo == Run.Hi) {
      Out.push_back(-static_cast<int64_t>(Run.Lo));
    } else if (Run.Step == 1) {
      Out.push_back(static_cast<int64_t>(Run.Lo));
      Out.push_back(-static_cast<int64_t>(Run.Hi));
    } else {
      Out.push_back(static_cast<int64_t>(Run.Lo));
      Out.push_back(static_cast<int64_t>(Run.Hi));
      Out.push_back(-static_cast<int64_t>(Run.Step));
    }
  }
  return Out;
}

bool TimestampSet::decodeSigned(const int64_t *Encoded, size_t Count,
                                TimestampSet &Out) {
  Out = TimestampSet();
  // Every entry ends in its only negative value, so a stream that decodes
  // holds exactly that many runs: capacity equals size, and the size-based
  // memory record below is the heap the runs really take.
  Out.Runs.reserve(static_cast<size_t>(std::count_if(
      Encoded, Encoded + Count, [](int64_t V) { return V < 0; })));
  if (!decodeSignedRuns(
          Count, [&Encoded] { return *Encoded++; },
          [&Out](const SeriesRun &Run) { Out.Runs.push_back(Run); }))
    return false;
  obs::memAllocCurrent(Out.Runs.size() * sizeof(SeriesRun));
  return true;
}

TimestampSet TimestampSet::fromDecodedRuns(const SeriesRun *Runs,
                                           size_t Count) {
  TimestampSet Set;
  Set.Runs.assign(Runs, Runs + Count);
  obs::memAllocCurrent(Count * sizeof(SeriesRun));
  return Set;
}

uint64_t TimestampSet::encodedValueCount() const {
  uint64_t Count = 0;
  for (const SeriesRun &Run : Runs) {
    if (Run.Lo == Run.Hi)
      Count += 1;
    else if (Run.Step == 1)
      Count += 2;
    else
      Count += 3;
  }
  return Count;
}
