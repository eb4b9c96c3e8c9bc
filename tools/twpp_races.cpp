//===- tools/twpp_races.cpp - Data race detector CLI ----------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Detects data races in thread-aware (version 2) TWPP archives by
// analyzing the compacted representation directly — the happens-before
// engine walks run-compressed access sets against constant-clock
// segments and never expands the trace:
//
//   twpp_races out.twpp
//   twpp_races --engine=both --format=json out.twpp
//
//   --engine=E    compacted (default), oracle (decompress-and-check
//                 baseline), or both (run the two differentially; any
//                 disagreement is reported and exits 2)
//   --format=FMT  text (default) or json (schema twpp-races-v1)
//
// Exit codes: 0 no races, 1 races found, 2 usage/IO error or engine
// mismatch — the same contract as twpp_verify.
//
//===----------------------------------------------------------------------===//

#include "races/RaceDetect.h"
#include "support/CliCommon.h"
#include "wpp/Archive.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::races;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_races [options] archive.twpp...\n"
      "  --engine=E    compacted (default), oracle, or both (differential)\n"
      "  --format=FMT  output format: text (default) or json\n"
      "exit codes: 0 race-free, 1 races found, 2 usage/IO/engine mismatch\n");
  return cli::ExitUsage;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

void renderRacesJson(std::string &Out, const RaceReport &Report) {
  Out += "\"races\": [";
  for (size_t I = 0; I != Report.Races.size(); ++I) {
    const RacePair &R = Report.Races[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"addr\": \"0x%" PRIx64 "\", \"threadA\": %u, "
                  "\"threadB\": %u, \"timeA\": %u, \"timeB\": %u, "
                  "\"kindA\": \"%c\", \"kindB\": \"%c\", \"pairs\": %" PRIu64
                  "}",
                  I ? ", " : "", R.Addr, R.ThreadA, R.ThreadB, R.TimeA,
                  R.TimeB, R.KindA == 0 ? 'W' : 'R', R.KindB == 0 ? 'W' : 'R',
                  R.PairCount);
    Out += Buf;
  }
  Out += "]";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Engine = "compacted";
  std::string Format = "text";
  std::vector<std::string> Archives;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    switch (cli::parseFormatFlag(Arg, Format)) {
    case cli::FlagParse::Ok:
      continue;
    case cli::FlagParse::Bad:
      return usage();
    case cli::FlagParse::NoMatch:
      break;
    }
    if (Arg.rfind("--engine=", 0) == 0) {
      Engine = Arg.substr(9);
      if (Engine != "compacted" && Engine != "oracle" && Engine != "both")
        return usage();
    } else if (Arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      Archives.push_back(Arg);
    }
  }
  if (Archives.empty())
    return usage();

  bool AnyRaces = false;
  bool Mismatch = false;
  std::string Json = "{\"schema\": \"twpp-races-v1\", \"archives\": [";

  for (size_t A = 0; A != Archives.size(); ++A) {
    const std::string &Path = Archives[A];
    ArchiveReader Reader;
    ConcurrencyInfo Conc;
    if (!Reader.open(Path) || !Reader.readConcurrency(Conc)) {
      const verify::Diagnostic &D = Reader.lastError();
      std::fprintf(stderr, "twpp_races: %s: [%s] %s (%s)\n", Path.c_str(),
                   D.CheckId.c_str(), D.Message.c_str(), D.Location.c_str());
      return cli::ExitUsage;
    }

    RaceReport Report = Engine == "oracle" ? detectRacesOracle(Conc)
                                           : detectRacesCompacted(Conc);
    bool Agree = true;
    if (Engine == "both") {
      RaceReport Oracle = detectRacesOracle(Conc);
      Agree = sameVerdict(Report, Oracle);
      if (!Agree) {
        Mismatch = true;
        std::fprintf(stderr,
                     "twpp_races: %s: compacted and oracle engines disagree\n"
                     "--- compacted ---\n%s--- oracle ---\n%s",
                     Path.c_str(), renderRaceLines(Report).c_str(),
                     renderRaceLines(Oracle).c_str());
      }
    }
    AnyRaces |= Report.racy();

    if (Format == "json") {
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "%s{\"path\": \"%s\", \"engine\": \"%s\", \"threads\": %zu, "
          "\"edges\": %zu, \"verdict\": \"%s\", ",
          A ? ", " : "", jsonEscape(Path).c_str(), Engine.c_str(),
          Conc.Threads.size(), Conc.Edges.size(),
          Report.racy() ? "racy" : "race-free");
      Json += Buf;
      renderRacesJson(Json, Report);
      std::snprintf(Buf, sizeof(Buf),
                    ", \"stats\": {\"pairsCovered\": %" PRIu64
                    ", \"segments\": %" PRIu64 ", \"segmentPairs\": %" PRIu64
                    ", \"racyPairs\": %" PRIu64 "}",
                    Report.Stats.PairsCovered, Report.Stats.Segments,
                    Report.Stats.SegmentPairs, Report.Stats.RacyPairs);
      Json += Buf;
      if (Engine == "both")
        Json += Agree ? ", \"enginesAgree\": true"
                      : ", \"enginesAgree\": false";
      Json += "}";
    } else {
      std::printf("%s: %s (%zu threads, %zu hb edges, engine %s)\n",
                  Path.c_str(), Report.racy() ? "RACY" : "race-free",
                  Conc.Threads.size(), Conc.Edges.size(), Engine.c_str());
      std::fputs(renderRaceLines(Report).c_str(), stdout);
      std::printf("  pairs covered %" PRIu64 ", racy pairs %" PRIu64
                  ", segments %" PRIu64 "\n",
                  Report.Stats.PairsCovered, Report.Stats.RacyPairs,
                  Report.Stats.Segments);
    }
  }

  if (Format == "json") {
    Json += "]}\n";
    std::fputs(Json.c_str(), stdout);
  }
  if (Mismatch)
    return cli::ExitUsage;
  return AnyRaces ? cli::ExitFindings : cli::ExitSuccess;
}
