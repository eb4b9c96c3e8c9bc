//===- races/RaceDetect.h - Race detection on the compacted form *- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Happens-before data-race detection over a compacted concurrent WPP's
/// ConcurrencyInfo — following "Data Race Detection on Compressed Traces"
/// (PAPERS.md): analyze the compressed representation directly instead of
/// replaying events.
///
/// Two engines produce byte-identical reports:
///
///  - detectRacesCompacted: counts racy pairs as totalWithWrite minus the
///    pairs ordered each way. Each thread's constant-clock segments are
///    compressed into arithmetic stretches (bounds and opposite-thread
///    clock both linear in the segment index); within a stretch, the
///    ordered pairs of one access run are summed per residue class with
///    closed-form floor sums. Work follows runs and stretches, never
///    segments, and nothing is expanded. The first racy pair is then
///    located by jumping between accesses along the monotone clocks.
///
///  - detectRacesOracle: the naive differential baseline. Expands every
///    access set to per-event lists, assigns every event its vector
///    clock, and checks all cross-thread same-address pairs one by one.
///
/// A race report lists one entry per racy (address, threadA, threadB)
/// triple: the lexicographically first racy access pair — ordered by
/// (timeA, kindA, timeB, kindB) with Write < Read — plus the total count
/// of racy pairs for that triple.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_RACES_RACEDETECT_H
#define TWPP_RACES_RACEDETECT_H

#include "races/HappensBefore.h"
#include "wpp/Concurrent.h"

#include <string>
#include <vector>

namespace twpp::races {

/// 0 = write, 1 = read (matches AccessEvent::Kind and the report's
/// tie-break order).
using AccessKind = uint8_t;

/// One reported race: the first racy pair and the pair population of a
/// racy (Addr, ThreadA, ThreadB) triple. ThreadA < ThreadB always.
struct RacePair {
  Address Addr = 0;
  uint32_t ThreadA = 0;
  uint32_t ThreadB = 0;
  uint32_t TimeA = 0;
  uint32_t TimeB = 0;
  AccessKind KindA = 0;
  AccessKind KindB = 0;
  uint64_t PairCount = 0;

  bool operator==(const RacePair &Other) const = default;
};

/// Work accounting. PairsCovered is engine-independent (the candidate
/// universe: cross-thread same-address access-pair combinations);
/// Segments and SegmentPairs are only meaningful for the compacted
/// engine. SegmentPairs counts its units of work: residue classes summed
/// by the ordered-pair census plus segment pairs probed for a witness.
struct RaceStats {
  uint64_t PairsCovered = 0;
  uint64_t Segments = 0;
  uint64_t SegmentPairs = 0;
  uint64_t RacyPairs = 0; ///< Sum of PairCount over the report.
};

struct RaceReport {
  std::vector<RacePair> Races; ///< Sorted by (Addr, ThreadA, ThreadB).
  RaceStats Stats;

  bool racy() const { return !Races.empty(); }
};

/// The production engine: stretch-wise detection on the compacted
/// representation. Never expands a timestamp set.
RaceReport detectRacesCompacted(const ConcurrencyInfo &Conc);

/// The decompress-and-check oracle.
RaceReport detectRacesOracle(const ConcurrencyInfo &Conc);

/// True when the two engines agree: identical race lists (the stats are
/// engine-specific and excluded).
bool sameVerdict(const RaceReport &A, const RaceReport &B);

/// Renders the race list in a canonical single-line-per-race form used
/// by the differential tests for byte-equality and by the text report of
/// `twpp races`.
std::string renderRaceLines(const RaceReport &Report);

} // namespace twpp::races

#endif // TWPP_RACES_RACEDETECT_H
