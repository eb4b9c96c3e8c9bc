//===- tools/RacesVerb.cpp - Data race detector ---------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Detects data races in thread-aware (version 3) TWPP archives by
// analyzing the compacted representation directly — the happens-before
// engine walks run-compressed access sets against constant-clock
// segments and never expands the trace:
//
//   twpp races out.twpp
//   twpp races --format=json out.twpp
//
// An archive that breaks the thread and race invariants (the
// twpp-thread-* and twpp-race-* checks of twpp verify) gets no verdict:
// its diagnostics, and exit 2 as for an unreadable archive.
//
// The decompress-and-check baseline (detectRacesOracle) is not on the
// command line: the race tests and bench/race_detect check this engine
// against it.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "races/RaceDetect.h"
#include "verify/ThreadChecks.h"
#include "wpp/Archive.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::races;
using namespace twpp::tool;

namespace {

void reportJson(const std::string &Path, const ConcurrencyInfo &Conc,
                const RaceReport &Report, obs::JsonWriter &W) {
  W.beginObject()
      .field("path", Path)
      .field("threads", Conc.Threads.size())
      .field("edges", Conc.Edges.size())
      .field("verdict", Report.racy() ? "racy" : "race-free")
      .beginArray("races");
  for (const RacePair &R : Report.Races) {
    char Addr[24];
    std::snprintf(Addr, sizeof(Addr), "0x%" PRIx64, R.Addr);
    W.beginObject()
        .field("addr", Addr)
        .field("threadA", R.ThreadA)
        .field("threadB", R.ThreadB)
        .field("timeA", R.TimeA)
        .field("timeB", R.TimeB)
        .field("kindA", R.KindA == 0 ? "W" : "R")
        .field("kindB", R.KindB == 0 ? "W" : "R")
        .field("pairs", R.PairCount)
        .end();
  }
  W.end()
      .beginObject("stats")
      .field("pairsCovered", Report.Stats.PairsCovered)
      .field("segments", Report.Stats.Segments)
      .field("segmentPairs", Report.Stats.SegmentPairs)
      .field("racyPairs", Report.Stats.RacyPairs)
      .end()
      .end();
}

} // namespace

int tool::runRaces(const Invocation &Inv) {
  bool AnyRaces = false;
  if (Inv.Json)
    Inv.Json->Body.beginArray("archives");
  for (const std::string &Path : Inv.Args) {
    ArchiveReader Reader;
    ConcurrencyInfo Conc;
    if (!Reader.open(Path) || !Reader.readConcurrency(Conc))
      return Inv.unusable(Path, {Reader.lastError()});

    // The engine assumes the thread and race invariants; on an archive
    // that breaks them its verdict could drop a race, so it gives none.
    verify::DiagnosticEngine Engine;
    verify::runConcurrencyChecks(Conc, nullptr, Engine);
    if (!Engine.clean())
      return Inv.unusable(Path, Engine.diagnostics());

    RaceReport Report = detectRacesCompacted(Conc);
    AnyRaces |= Report.racy();
    if (Inv.Json) {
      reportJson(Path, Conc, Report, Inv.Json->Body);
      continue;
    }
    std::printf("%s: %s (%zu threads, %zu hb edges)\n", Path.c_str(),
                Report.racy() ? "RACY" : "race-free", Conc.Threads.size(),
                Conc.Edges.size());
    std::fputs(renderRaceLines(Report).c_str(), stdout);
    std::printf("  pairs covered %" PRIu64 ", racy pairs %" PRIu64
                ", segments %" PRIu64 "\n",
                Report.Stats.PairsCovered, Report.Stats.RacyPairs,
                Report.Stats.Segments);
  }
  return AnyRaces ? cli::ExitFindings : cli::ExitSuccess;
}
