//===- bench/pipeline_e2e/Analyze.cpp - The analyze workload --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// analyze: the two analyses that bypass extraction.
//  - Races: the six concurrent profiles at 8x Items become thread-aware
//    (v2) archives during set-up; a sweep opens each one and runs
//    readConcurrency -> detectRacesCompacted to a verdict. The
//    decompress-and-check oracle grows cubically on the racy pipeline
//    (~40 s at 8x), so it checks the compacted engine at 1x Items.
//  - Slicing: a fixed program (a main loop calling two helpers, plus an
//    independent `noise` accumulator) traced at 2000 iterations;
//    WholeProgramTrace::build, then sliceWholeProgram at 24 criteria
//    spread over the run, so criteria late in the run cost more.
//
//===----------------------------------------------------------------------===//

#include "WritePath.h"

#include "lang/Lower.h"
#include "races/RaceDetect.h"
#include "runtime/Interpreter.h"
#include "slicing/WholeProgramSlicer.h"
#include "support/Crc32.h"
#include "support/FileIO.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"
#include "wpp/Sizes.h"

using namespace twpp;
using namespace twpp::e2e;
using namespace twpp::races;

namespace {

constexpr unsigned SweepsPerRep = 5;
constexpr unsigned SliceCriteria = 24;

const char *const SliceSource = R"(
fn scale(x, base) {
  let y = x * 3 + base;
  if (y % 7 == 0) { y = y - base; } else { y = y + 1; }
  return y;
}
fn mix(a, t) {
  let s = a + t;
  while (s > 1000) { s = s - 997; }
  return s;
}
fn main() {
  read n;
  read base;
  let total = 0;
  let noise = 0;
  let i = 0;
  while (i < n) {
    a = call scale(i, base);
    b = call mix(a, total);
    total = b;
    noise = noise + i * 2;
    i = i + 1;
  }
  print total;
  print noise;
}
)";

/// Bytes of the concurrent trace stored linearly: each thread's .owpp
/// plus one varint per field of every access and sync event.
uint64_t uncompactedBytes(const ConcurrentTrace &Trace) {
  uint64_t Bytes = 0;
  for (const ThreadTrace &T : Trace.Threads)
    Bytes += owppBytes(T.Trace);
  for (const AccessEvent &A : Trace.Accesses)
    Bytes += varintSize((uint64_t{A.Thread} << 1) |
                        static_cast<uint64_t>(A.EventKind)) +
             varintSize(A.Addr) + varintSize(A.Time);
  for (const SyncEvent &S : Trace.Syncs)
    Bytes += varintSize((uint64_t{S.Thread} << 2) |
                        static_cast<uint64_t>(S.EventKind)) +
             varintSize(S.Object) + varintSize(S.Time);
  return Bytes;
}

struct RaceInput {
  ConcurrentProfile Profile;
  std::string Path;
  uint64_t Events = 0;
  uint64_t Accesses = 0;
  uint64_t UncompactedBytes = 0;
  uint64_t ArchiveBytes = 0;
  uint32_t ArchiveCrc = 0;
  RaceReport Reference; ///< The warm-up rep's verdict.
};

class AnalyzeWorkload final : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    const Options &Opt = B.options();
    ItemScale = Opt.Smoke ? 1 : 8;
    Races.clear();
    for (ConcurrentProfile P :
         Opt.Smoke ? testConcurrentProfiles() : concurrentProfiles()) {
      P.Items *= ItemScale;
      P.Seed += Opt.Seed;
      ConcurrentTrace Trace = generateConcurrentTrace(P);
      ConcurrentWpp Wpp = compactConcurrentWpp(Trace);
      RaceInput In;
      In.Profile = P;
      In.Path = B.path("analyze." + P.Name + ".twpp");
      In.Events = Trace.blockEventCount();
      In.Accesses = Trace.Accesses.size();
      In.UncompactedBytes = uncompactedBytes(Trace);
      std::vector<uint8_t> Bytes = encodeConcurrentArchive(Wpp);
      B.report().check(writeFileBytesAtomic(In.Path, Bytes).ok(),
                       P.Name + ": archive written");
      In.ArchiveBytes = Bytes.size();
      In.ArchiveCrc = crc32(Bytes.data(), Bytes.size());
      Races.push_back(std::move(In));
    }

    Program = Module();
    std::string Error;
    B.report().check(compileProgram(SliceSource, Program, Error),
                     "slicing program compiles " + Error);
    Iterations = Opt.Smoke ? 100 : 2000;
    ExecutionResult Result;
    SliceTrace = traceExecution(
        Program, {Iterations, 1 + static_cast<int64_t>(Opt.Seed % 1000)},
        Result);
    B.report().check(Result.Completed, "slicing program runs");
    TotalVar = Program.internVar("total");
    NoiseVar = Program.internVar("noise");
    LoopVar = Program.internVar("i");
  }

  void echoInputs() override {
    for (const RaceInput &In : Races)
      B.report().echo("input " + In.Profile.Name +
                      " events=" + std::to_string(In.Events) +
                      " threads=" + std::to_string(In.Profile.Threads) +
                      " accesses=" + std::to_string(In.Accesses));
    B.report().echo("input slicing events=" +
                    std::to_string(SliceTrace.Events.size()) +
                    " functions=" + std::to_string(SliceTrace.FunctionCount) +
                    " iterations=" + std::to_string(Iterations));
  }

  void rep(RepKind Kind) override {
    for (unsigned I = 0; I != SweepsPerRep; ++I)
      raceSweep(Kind);
    slicePass(Kind);
  }

  void echoArchives() override {
    for (const RaceInput &In : Races)
      B.report().archive(In.Profile.Name, In.ArchiveBytes, In.ArchiveCrc);
  }


  void extras() override {
    // The decompress-and-check oracle against the compacted engine, both
    // at 1x Items: at 8x the oracle alone runs for ~40 s.
    double OracleMs = 0, CompactedMs = 0;
    for (const RaceInput &In : Races) {
      ConcurrencyInfo Conc = baselineConcurrency(In.Profile);
      double Start = nowUs();
      {
        SpanScope S(B.spans(), "races.oracle", In.Profile.Name);
        detectRacesOracle(Conc);
      }
      double Mid = nowUs();
      {
        SpanScope S(B.spans(), "races.detect_1x", In.Profile.Name);
        detectRacesCompacted(Conc);
      }
      OracleMs += (Mid - Start) / 1000.0;
      CompactedMs += (nowUs() - Mid) / 1000.0;
    }
    OracleSpeedup = OracleMs / CompactedMs;
  }

  void finish(const LayerProfile &Layers) override {
    Report &Out = B.report();
    // The engines agree on the same profiles and seeds at 1x Items.
    for (const RaceInput &In : Races) {
      ConcurrencyInfo Conc = baselineConcurrency(In.Profile);
      RaceReport Compacted = detectRacesCompacted(Conc);
      Out.check(sameVerdict(Compacted, detectRacesOracle(Conc)) &&
                    Compacted.racy() == In.Profile.InjectRaces,
                In.Profile.Name +
                    ": compacted verdict equals the oracle's at 1x Items");
    }

    uint64_t Uncompacted = 0, Archive = 0;
    for (const RaceInput &In : Races) {
      Uncompacted += In.UncompactedBytes;
      Archive += In.ArchiveBytes;
    }
    double SweepMs = median(Timed.SweepMs);
    Out.metric("race_sweep_ms", SweepMs, "ms", Timed.SweepMs.size());
    Out.metric("slice_ms_p50", median(Timed.SliceUs) / 1000.0, "ms",
               Timed.SliceUs.size());
    Out.metric("throughput_per_s",
               static_cast<double>(Races.size()) / (SweepMs / 1000.0), "1/s",
               Timed.SweepMs.size());
    Out.metric("latency_us_p50", median(Timed.SliceUs), "us",
               Timed.SliceUs.size());
    Out.metric("compaction_factor",
               static_cast<double>(Uncompacted) / static_cast<double>(Archive),
               "x", Races.size());
    Out.metric("races.segment_pairs", static_cast<double>(SegmentPairs),
               "count", 1);
    Out.metric("slicing.queries_per_slice",
               static_cast<double>(SliceQueries) / SliceCriteria, "count",
               SliceCriteria);

    if (Layers.Reps == 0)
      return;
    double Sweeps = SweepsPerRep;
    Out.metric("races.read_ms",
               (Layers.at("wpp.archive_open").SelfMs +
                Layers.at("wpp.read_concurrency").SelfMs) /
                   Sweeps,
               "ms", Layers.Reps);
    double DetectMs = Layers.at("races.detect").SelfMs / Sweeps;
    Out.metric("races.detect_ms", DetectMs, "ms", Layers.Reps);
    for (const RaceInput &In : Races)
      Out.metric("races.detect_ms." + In.Profile.Name,
                 Layers.at("races.detect." + In.Profile.Name).SelfMs / Sweeps,
                 "ms", Layers.Reps);
    Out.metric("races.speedup_vs_oracle_1x", OracleSpeedup, "x", 1);
    Out.metric("slicing.build_ms", Layers.at("slicing.build").SelfMs, "ms",
               Layers.Reps);
    Out.metric("slicing.slice_ms_p75", percentile(Traced.SliceUs, 75) / 1000.0,
               "ms", Traced.SliceUs.size());
  }

private:
  /// \p P's concurrency metadata at 1x Items.
  ConcurrencyInfo baselineConcurrency(ConcurrentProfile P) const {
    P.Items /= ItemScale;
    return compactConcurrentWpp(generateConcurrentTrace(P)).Conc;
  }

  struct Samples {
    std::vector<double> SweepMs;
    std::vector<double> SliceUs;
  };

  void raceSweep(RepKind Kind) {
    Report &Out = B.report();
    SpanRecorder &Rec = B.spans();
    uint64_t Pairs = 0;
    double Start = nowUs();
    for (RaceInput &In : Races) {
      const std::string &Name = In.Profile.Name;
      ArchiveReader Reader;
      ConcurrencyInfo Conc;
      bool Ok;
      {
        SpanScope S(Rec, "wpp.archive_open", Name);
        Ok = Reader.open(In.Path);
      }
      {
        SpanScope S(Rec, "wpp.read_concurrency", Name);
        Ok = Ok && Reader.readConcurrency(Conc);
      }
      RaceReport Verdict;
      {
        SpanScope S(Rec, "races.detect", Name);
        Verdict = detectRacesCompacted(Conc);
      }
      if (Kind == RepKind::Warmup)
        In.Reference = Verdict;
      Out.check(Ok && sameVerdict(Verdict, In.Reference) &&
                    Verdict.racy() == In.Profile.InjectRaces,
                Name + ": verdict racy() == InjectRaces, same every sweep");
      Pairs += Verdict.Stats.SegmentPairs;
    }
    if (Samples *S = samplesFor(Kind, Timed, Traced))
      S->SweepMs.push_back((nowUs() - Start) / 1000.0);
    SegmentPairs = Pairs;
  }

  void slicePass(RepKind Kind) {
    Report &Out = B.report();
    SpanRecorder &Rec = B.spans();
    Samples *Samp = samplesFor(Kind, Timed, Traced);
    WholeProgramTrace Trace;
    {
      SpanScope S(Rec, "slicing.build");
      Trace = WholeProgramTrace::build(Program, SliceTrace);
    }
    // Criteria: `total` at `i = i + 1`, the end of 24 iterations spread
    // evenly over the run (the first assignment to i is the initializer).
    const Function *Main = &Program.Functions[Program.MainId];
    const Function *Scale = Program.findFunction("scale");
    const Function *Mix = Program.findFunction("mix");
    std::vector<size_t> Assigns;
    for (size_t I = 0; I != Trace.instances().size(); ++I) {
      const auto &Inst = Trace.instances()[I];
      if (Inst.Function == Main->Id &&
          Trace.bridgeOf(Main->Id).Program.stmt(Inst.Node).Def == LoopVar)
        Assigns.push_back(I);
    }
    if (!Out.check(Assigns.size() > SliceCriteria, "slicing criteria found"))
      return;
    uint64_t Queries = 0;
    for (unsigned C = 0; C != SliceCriteria; ++C) {
      size_t Criterion = Assigns[1 + C * (Assigns.size() - 1) / SliceCriteria];
      GlobalSliceResult Slice;
      double Start = nowUs();
      {
        SpanScope S(Rec, "slicing.slice");
        Slice = sliceWholeProgram(Trace, Program, Criterion, TotalVar);
      }
      if (Samp)
        Samp->SliceUs.push_back(nowUs() - Start);
      Queries += Slice.QueriesGenerated;
      bool Noise = false, InScale = false, InMix = false;
      for (GlobalNode Node : Slice.Nodes) {
        InScale |= Node.Function == Scale->Id;
        InMix |= Node.Function == Mix->Id;
        Noise |= Node.Function == Main->Id &&
                 Trace.bridgeOf(Main->Id).Program.stmt(Node.Node).Def ==
                     NoiseVar;
      }
      Out.check(!Noise && InScale && InMix,
                "slice " + std::to_string(C) +
                    " excludes noise and reaches both helpers");
    }
    SliceQueries = Queries;
  }

  std::vector<RaceInput> Races;
  Module Program;
  RawTrace SliceTrace;
  int64_t Iterations = 0;
  VarId TotalVar = NoVar, NoiseVar = NoVar, LoopVar = NoVar;
  Samples Timed, Traced;
  uint64_t SegmentPairs = 0, SliceQueries = 0;
  uint32_t ItemScale = 8;
  double OracleSpeedup = 0;
};

} // namespace

std::unique_ptr<Workload> e2e::makeAnalyzeWorkload(Bench &B) {
  return std::make_unique<AnalyzeWorkload>(B);
}
