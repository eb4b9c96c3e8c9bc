//===- tools/RacesVerb.cpp - Data race detector ---------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Detects data races in thread-aware (version 2) TWPP archives by
// analyzing the compacted representation directly — the happens-before
// engine walks run-compressed access sets against constant-clock
// segments and never expands the trace:
//
//   twpp races out.twpp
//   twpp races --engine=both --format=json out.twpp
//
// --engine=oracle runs the decompress-and-check baseline instead, and
// --engine=both runs the two differentially: any disagreement is
// reported and exits 2. The JSON report has schema twpp-races-v1.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "obs/Json.h"
#include "races/RaceDetect.h"
#include "wpp/Archive.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::races;
using namespace twpp::tool;

namespace {

struct RacesOptions {
  std::string Engine = "compacted";
  std::string Format = "text";
} Opts;

void renderRacesJson(std::string &Out, const RaceReport &Report) {
  Out += "\"races\": [";
  for (size_t I = 0; I != Report.Races.size(); ++I) {
    const RacePair &R = Report.Races[I];
    appendf(Out,
            "%s{\"addr\": \"0x%" PRIx64 "\", \"threadA\": %u, "
            "\"threadB\": %u, \"timeA\": %u, \"timeB\": %u, "
            "\"kindA\": \"%c\", \"kindB\": \"%c\", \"pairs\": %" PRIu64 "}",
            I ? ", " : "", R.Addr, R.ThreadA, R.ThreadB, R.TimeA, R.TimeB,
            R.KindA == 0 ? 'W' : 'R', R.KindB == 0 ? 'W' : 'R', R.PairCount);
  }
  Out += "]";
}

} // namespace

cli::FlagTable tool::racesFlags() {
  return {
      cli::choiceFlag("engine", "detector to run; both compares the two",
                      Opts.Engine, {"compacted", "oracle", "both"}),
      cli::choiceFlag("format", "report", Opts.Format, {"text", "json"}),
  };
}

int tool::runRaces(const Invocation &Inv) {
  const std::vector<std::string> &Archives = Inv.Args;
  bool AnyRaces = false;
  bool Mismatch = false;
  std::string Json = "{\"schema\": \"twpp-races-v1\", \"archives\": [";

  for (size_t A = 0; A != Archives.size(); ++A) {
    const std::string &Path = Archives[A];
    ArchiveReader Reader;
    ConcurrencyInfo Conc;
    if (!Reader.open(Path) || !Reader.readConcurrency(Conc)) {
      const verify::Diagnostic &D = Reader.lastError();
      std::fprintf(stderr, "twpp races: %s: [%s] %s (%s)\n", Path.c_str(),
                   D.CheckId.c_str(), D.Message.c_str(), D.Location.c_str());
      return cli::ExitUsage;
    }

    RaceReport Report = Opts.Engine == "oracle" ? detectRacesOracle(Conc)
                                                : detectRacesCompacted(Conc);
    bool Agree = true;
    if (Opts.Engine == "both") {
      RaceReport Oracle = detectRacesOracle(Conc);
      Agree = sameVerdict(Report, Oracle);
      if (!Agree) {
        Mismatch = true;
        std::fprintf(stderr,
                     "twpp races: %s: compacted and oracle engines disagree\n"
                     "--- compacted ---\n%s--- oracle ---\n%s",
                     Path.c_str(), renderRaceLines(Report).c_str(),
                     renderRaceLines(Oracle).c_str());
      }
    }
    AnyRaces |= Report.racy();

    if (Opts.Format == "json") {
      appendf(Json,
              "%s{\"path\": %s, \"engine\": \"%s\", \"threads\": %zu, "
              "\"edges\": %zu, \"verdict\": \"%s\", ",
              A ? ", " : "", obs::jsonStringLiteral(Path).c_str(),
              Opts.Engine.c_str(), Conc.Threads.size(), Conc.Edges.size(),
              Report.racy() ? "racy" : "race-free");
      renderRacesJson(Json, Report);
      appendf(Json,
              ", \"stats\": {\"pairsCovered\": %" PRIu64
              ", \"segments\": %" PRIu64 ", \"segmentPairs\": %" PRIu64
              ", \"racyPairs\": %" PRIu64 "}",
              Report.Stats.PairsCovered, Report.Stats.Segments,
              Report.Stats.SegmentPairs, Report.Stats.RacyPairs);
      if (Opts.Engine == "both")
        Json += Agree ? ", \"enginesAgree\": true"
                      : ", \"enginesAgree\": false";
      Json += "}";
    } else {
      std::printf("%s: %s (%zu threads, %zu hb edges, engine %s)\n",
                  Path.c_str(), Report.racy() ? "RACY" : "race-free",
                  Conc.Threads.size(), Conc.Edges.size(), Opts.Engine.c_str());
      std::fputs(renderRaceLines(Report).c_str(), stdout);
      std::printf("  pairs covered %" PRIu64 ", racy pairs %" PRIu64
                  ", segments %" PRIu64 "\n",
                  Report.Stats.PairsCovered, Report.Stats.RacyPairs,
                  Report.Stats.Segments);
    }
  }

  if (Opts.Format == "json") {
    Json += "]}\n";
    std::fputs(Json.c_str(), stdout);
  }
  if (Mismatch)
    return cli::ExitUsage;
  return AnyRaces ? cli::ExitFindings : cli::ExitSuccess;
}
