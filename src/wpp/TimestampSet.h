//===- wpp/TimestampSet.h - Arithmetic-series timestamp sets ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ordered sets of timestamps stored as arithmetic series, the TWPP path
/// trace representation (paper Section 2, "Compacting TWPP path traces").
/// A set is a sequence of entries `l` (singleton), `l:h` (step 1) or
/// `l:h:s` (step s); on disk, entry boundaries are encoded in the sign of
/// the values — the last number of every entry is stored negative — so the
/// boundaries cost no extra space.
///
/// The same class doubles as the timestamp vector propagated by the
/// demand-driven analyses (Section 4): shifting a whole series by -1 is one
/// run update, which is what makes query propagation over compacted traces
/// cheap (the paper's (2:20:2) -> (1:19:2) example). Intersection and
/// union work on the runs too, never on the expanded elements.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_TIMESTAMPSET_H
#define TWPP_WPP_TIMESTAMPSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twpp {

/// Timestamps are 1-based positions in a compacted path trace. They must be
/// positive: the on-disk encoding uses the sign bit for entry boundaries.
using Timestamp = uint32_t;

/// One arithmetic series entry: {Lo, Lo+Step, ..., Hi}. Invariants:
/// Lo <= Hi, (Hi - Lo) % Step == 0, Step >= 1; singleton iff Lo == Hi.
struct SeriesRun {
  Timestamp Lo;
  Timestamp Hi;
  uint32_t Step;

  bool operator==(const SeriesRun &Other) const = default;

  uint64_t count() const { return (Hi - Lo) / Step + 1; }
  bool contains(Timestamp T) const {
    return T >= Lo && T <= Hi && (T - Lo) % Step == 0;
  }
};

namespace detail {

/// |V| when it is a valid timestamp or step (1..UINT32_MAX), else 0.
/// INT64_MIN lands in the else branch before it could be negated.
inline uint64_t seriesEntryMagnitude(int64_t V) {
  if (V == 0 || V < -int64_t(UINT32_MAX) || V > int64_t(UINT32_MAX))
    return 0;
  return static_cast<uint64_t>(V < 0 ? -V : V);
}

} // namespace detail

/// Decodes a sign-delimited stream of \p Count values (encodeSigned's
/// format), pulling each value from \p Next() and handing each run to
/// \p Emit(const SeriesRun &). The one reader of the format: decodeSigned
/// and the archive's function-block walker both go through it.
/// \returns false on a malformed stream: an entry cut short, a value or
/// step outside 1..UINT32_MAX, h <= l, a step that does not divide h - l,
/// or a three-value entry whose step is not the negative value.
template <typename NextFn, typename EmitFn>
bool decodeSignedRuns(uint64_t Count, NextFn &&Next, EmitFn &&Emit) {
  while (Count != 0) {
    --Count;
    int64_t First = Next();
    uint64_t Lo = detail::seriesEntryMagnitude(First);
    if (Lo == 0)
      return false;
    if (First < 0) {
      // Singleton entry.
      Emit(SeriesRun{static_cast<Timestamp>(Lo), static_cast<Timestamp>(Lo),
                     1});
      continue;
    }
    if (Count == 0)
      return false;
    --Count;
    int64_t Second = Next();
    uint64_t Hi = detail::seriesEntryMagnitude(Second);
    if (Hi <= Lo)
      return false;
    if (Second < 0) {
      // l : h with step 1.
      Emit(SeriesRun{static_cast<Timestamp>(Lo), static_cast<Timestamp>(Hi),
                     1});
      continue;
    }
    if (Count == 0)
      return false;
    --Count;
    int64_t Third = Next();
    uint64_t Step = detail::seriesEntryMagnitude(Third);
    // l : h : s.
    if (Third >= 0 || Step == 0 || (Hi - Lo) % Step != 0)
      return false;
    Emit(SeriesRun{static_cast<Timestamp>(Lo), static_cast<Timestamp>(Hi),
                   static_cast<uint32_t>(Step)});
  }
  return true;
}

/// An ordered set of positive timestamps with run-compressed storage.
class TimestampSet {
public:
  TimestampSet() = default;

  /// Builds a set from a strictly increasing timestamp list, greedily
  /// packing maximal constant-stride runs (a two-element run with stride
  /// != 1 is stored as two singletons, which encodes smaller).
  static TimestampSet fromSorted(const Timestamp *First, const Timestamp *Last);
  static TimestampSet fromSorted(const std::vector<Timestamp> &Sorted) {
    return fromSorted(Sorted.data(), Sorted.data() + Sorted.size());
  }

  /// Builds a set holding a single run.
  static TimestampSet fromRun(Timestamp Lo, Timestamp Hi, uint32_t Step);

  bool operator==(const TimestampSet &Other) const = default;

  bool empty() const { return Runs.empty(); }
  uint64_t count() const;
  bool contains(Timestamp T) const;

  /// Smallest element >= T, or 0 when none exists: one binary search
  /// over the runs. The race detector's witness search jumps from access
  /// to access with it.
  Timestamp firstAtLeast(Timestamp T) const;
  Timestamp min() const { return Runs.front().Lo; }
  Timestamp max() const { return Runs.back().Hi; }

  /// Materializes the set as a sorted timestamp vector.
  std::vector<Timestamp> toVector() const;

  /// Returns the set shifted by \p Delta; elements that would become
  /// non-positive are dropped. Runs are updated wholesale — this is the
  /// operation backward query propagation performs at every step.
  TimestampSet shifted(int64_t Delta) const;

  /// Set intersection (elements in both). A two-pointer sweep over the run
  /// lists: each overlapping pair of runs meets in at most one series, so
  /// the cost is O(runs).
  TimestampSet intersect(const TimestampSet &Other) const;

  /// Set union. Runs whose ranges do not overlap pass through whole, as do
  /// overlaps where one stride divides the other; only interleaved
  /// overlapping runs (say, odd and even timestamps) cost per element.
  TimestampSet unite(const TimestampSet &Other) const;

  /// The three operations above writing into \p Out, whose storage is
  /// reused; propagation loops keep scratch sets this way. \p Out must not
  /// be an operand.
  void shiftedInto(int64_t Delta, TimestampSet &Out) const;
  void intersectInto(const TimestampSet &Other, TimestampSet &Out) const;
  void uniteInto(const TimestampSet &Other, TimestampSet &Out) const;

  /// The paper's sign-delimited integer stream: each run becomes `-l`,
  /// `l, -h` (step 1), or `l, h, -s`; decode keys off the signs.
  std::vector<int64_t> encodeSigned() const;

  /// Inverse of encodeSigned. \returns false on a malformed stream. The
  /// pointer form is the primary entry point so the zero-copy read path
  /// can decode from arena-backed scratch without building a vector.
  static bool decodeSigned(const int64_t *Encoded, size_t Count,
                           TimestampSet &Out);

  static bool decodeSigned(const std::vector<int64_t> &Encoded,
                           TimestampSet &Out) {
    return decodeSigned(Encoded.data(), Encoded.size(), Out);
  }

  /// A set holding the \p Count runs at \p Runs verbatim, as
  /// decodeSignedRuns emitted them (capacity equals size). Records the run
  /// bytes against the innermost MemScope, as decodeSigned does.
  static TimestampSet fromDecodedRuns(const SeriesRun *Runs, size_t Count);

  /// Number of integers encodeSigned would emit (the paper's measure of a
  /// timestamp vector's size, Table 6).
  uint64_t encodedValueCount() const;

  const std::vector<SeriesRun> &runs() const { return Runs; }

private:
  /// Runs, sorted by Lo; a canonical form is maintained so that equal sets
  /// compare equal (fromSorted's greedy packing of the element sequence;
  /// intersect and unite pack their results the same way). shifted() is
  /// the exception: dropping the front of the set can leave runs that
  /// fromSorted would pack differently (say, a two-element stepped run).
  std::vector<SeriesRun> Runs;
};

} // namespace twpp

#endif // TWPP_WPP_TIMESTAMPSET_H
