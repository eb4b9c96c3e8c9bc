//===- bench/race_detect.cpp - Race detection on the compacted form -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Compares the compacted-representation race detector (flat clock
// timelines, a census summed over timestamp-set runs, no trace
// expansion) against the decompress-and-check oracle on the concurrent
// workload profiles. The two engines must agree on every profile — a
// disagreement is a bench failure, not a table row.
//
//   race_detect [--emit DIR] [--metrics-out PATH] [--trace-out PATH]
//
// --emit DIR additionally writes each profile's thread-aware archive to
// DIR/<profile>.twpp (test-sized, seeded) so CI can smoke-test the
// twpp races CLI against known racy and race-free inputs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "races/RaceDetect.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"

#include <cstdio>
#include <string>

using namespace twpp;
using namespace twpp::bench;
using namespace twpp::races;

namespace {

/// Wall time of \p Fn, best of \p Reps runs (races are pure CPU work, so
/// the minimum is the least noisy estimator).
template <typename FnT> double bestOfMs(unsigned Reps, FnT &&Fn) {
  double Best = 0;
  for (unsigned R = 0; R != Reps; ++R) {
    Stopwatch Sw;
    Fn();
    double Ms = Sw.elapsedUs() / 1000.0;
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

int emitArchives(const std::string &Dir) {
  for (const ConcurrentProfile &P : testConcurrentProfiles()) {
    ConcurrentWpp Wpp = compactConcurrentWpp(generateConcurrentTrace(P));
    std::string Path = Dir + "/" + P.Name + ".twpp";
    if (!writeConcurrentArchiveFile(Path, Wpp)) {
      std::fprintf(stderr, "race_detect: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", Path.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string EmitDir;
  BenchTelemetry Telemetry(
      Argc, Argv, "race_detect",
      {cli::stringFlag("emit", "DIR",
                       "also write each test profile's archive to DIR",
                       EmitDir)});
  if (!EmitDir.empty())
    if (int Rc = emitArchives(EmitDir))
      return Rc;
  TablePrinter Table("Race detection: compacted engine vs "
                     "decompress-and-check oracle");
  Table.addRow({"Profile", "Thr", "Accesses", "Edges", "Verdict",
                "Compacted (ms)", "Oracle (ms)", "Speedup"});

  bool Mismatch = false;
  for (const ConcurrentProfile &P : concurrentProfiles()) {
    std::fprintf(stderr, "[bench] building %s...\n", P.Name.c_str());
    ConcurrentTrace Trace = generateConcurrentTrace(P);
    ConcurrentWpp Wpp = compactConcurrentWpp(Trace);

    RaceReport Compacted = detectRacesCompacted(Wpp.Conc);
    RaceReport Oracle = detectRacesOracle(Wpp.Conc);
    if (!sameVerdict(Compacted, Oracle)) {
      std::fprintf(stderr,
                   "race_detect: engines disagree on %s\n"
                   "--- compacted ---\n%s--- oracle ---\n%s",
                   P.Name.c_str(), renderRaceLines(Compacted).c_str(),
                   renderRaceLines(Oracle).c_str());
      Mismatch = true;
    }

    double CompactedMs =
        bestOfMs(5, [&] { detectRacesCompacted(Wpp.Conc); });
    double OracleMs = bestOfMs(3, [&] { detectRacesOracle(Wpp.Conc); });

    Table.addRow({P.Name, std::to_string(P.Threads),
                  std::to_string(Trace.Accesses.size()),
                  std::to_string(Wpp.Conc.Edges.size()),
                  Compacted.racy() ? "RACY" : "race-free",
                  formatDouble(CompactedMs, 3), formatDouble(OracleMs, 3),
                  formatDouble(OracleMs / CompactedMs, 1) + "x"});
    Telemetry.checkpoint(P.Name);
  }

  Table.print();
  return Telemetry.finish(Mismatch ? 1 : 0);
}
