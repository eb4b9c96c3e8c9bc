//===- bench/pipeline_e2e/Harness.cpp - End-to-end bench plumbing ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Export.h"
#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace twpp;
using namespace twpp::e2e;

double e2e::nowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
      .count();
}

double e2e::percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = Q / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

uint64_t e2e::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  uint64_t Hash = 0xCBF29CE484222325ULL ^ Seed;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001B3ULL;
  }
  return Hash;
}

std::string e2e::shortProfileName(const std::string &Name) {
  size_t Dot = Name.find('.');
  return Dot == std::string::npos ? Name : Name.substr(Dot + 1);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int32_t SpanRecorder::open(const char *Name, const std::string &Label) {
  Span S;
  S.Name = Name;
  S.Label = Label;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Rep = CurrentRep;
  S.StartUs = nowUs();
  Spans.push_back(std::move(S));
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void SpanRecorder::close(int32_t Id, uint64_t Calls) {
  Span &S = Spans[static_cast<size_t>(Id)];
  S.EndUs = nowUs();
  S.Calls = Calls;
  // Scopes close in LIFO order, so the top of the stack is always Id.
  Stack.pop_back();
}

std::vector<double> SpanRecorder::selfTimesUs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.EndUs - S.StartUs;
  return Self;
}

namespace {

std::string jsonEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

bool SpanRecorder::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"rep\":%u,\"calls\":%llu,\"label\":\"%s\"}}\n",
                 I ? "," : "", jsonEscape(Name).c_str(), Cat.c_str(),
                 S.StartUs, S.EndUs - S.StartUs, I, S.Parent, S.Rep,
                 static_cast<unsigned long long>(S.Calls),
                 jsonEscape(S.Label).c_str());
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

const LayerProfile::Entry &LayerProfile::at(const std::string &Name) const {
  static const Entry None;
  auto It = Layers.find(Name);
  return It == Layers.end() ? None : It->second;
}

namespace {

/// Folds the spans of traced reps (rep ids >= 1) into per-rep layer self
/// times; spans-only extras carry rep id 0 and stay out.
LayerProfile buildLayerProfile(const SpanRecorder &Rec,
                               const std::vector<double> &TracedMs) {
  LayerProfile P;
  P.Reps = static_cast<unsigned>(TracedMs.size());
  P.RepWallMs = median(TracedMs);
  if (P.Reps == 0)
    return P;
  std::vector<double> Self = Rec.selfTimesUs();
  for (size_t I = 0; I != Rec.spans().size(); ++I) {
    const SpanRecorder::Span &S = Rec.spans()[I];
    if (S.Rep == 0)
      continue;
    auto Add = [&](const std::string &Key) {
      LayerProfile::Entry &E = P.Layers[Key];
      E.SelfMs += Self[I] / 1000.0 / P.Reps;
      E.TotalMs += (S.EndUs - S.StartUs) / 1000.0 / P.Reps;
      E.Calls += static_cast<double>(S.Calls) / P.Reps;
    };
    Add(S.Name);
    if (!S.Label.empty())
      Add(std::string(S.Name) + "." + S.Label);
  }
  return P;
}

bool isLabelled(const std::string &Key) {
  // "wpp.partition" has one dot; "wpp.partition.go" is a labelled copy.
  return std::count(Key.begin(), Key.end(), '.') > 1;
}

/// Per-layer metrics every workload reports from its traced reps.
void reportLayerShares(Report &Out, const LayerProfile &P,
                       const std::vector<double> &OffMs) {
  static const char *const Modules[] = {"ingest",   "wpp",   "support",
                                        "dataflow", "races", "slicing"};
  double LayerSum = 0, HotMs = 0;
  std::string Hot;
  std::map<std::string, double> ModuleMs;
  for (const auto &[Key, E] : P.Layers) {
    if (isLabelled(Key) || Key.rfind("bench.", 0) == 0)
      continue;
    LayerSum += E.SelfMs;
    ModuleMs[Key.substr(0, Key.find('.'))] += E.SelfMs;
    if (E.SelfMs > HotMs) {
      HotMs = E.SelfMs;
      Hot = Key;
    }
  }
  // Shares are of the mean rep wall time, the same averaging as the
  // per-rep self times.
  double Wall = P.at("bench.rep").TotalMs;
  Out.metric("bench.rep_wall_ms", P.RepWallMs, "ms", P.Reps);
  Out.metric("bench.layer_self_sum_pct", 100.0 * LayerSum / Wall, "%",
             P.Reps);
  for (const char *Module : Modules)
    Out.metric(std::string(Module) + ".self_pct",
               100.0 * ModuleMs[Module] / Wall, "%", P.Reps);
  Out.echo("hot_layer " + Hot);
  Out.metric("bench.hot_layer_self_pct", 100.0 * HotMs / Wall, "%", P.Reps);
  double Off = median(OffMs);
  if (Off > 0)
    Out.metric("bench.trace_overhead_pct", 100.0 * (P.RepWallMs - Off) / Off,
               "%", P.Reps);
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int64_t registryValue(const std::string &Name) {
  for (const auto &[Key, Value] : obs::metrics().counterSnapshot())
    if (Key == Name)
      return static_cast<int64_t>(Value);
  for (const auto &[Key, Value] : obs::metrics().gaugeSnapshot())
    if (Key == Name)
      return Value;
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value, const char *Unit,
                    uint64_t Samples) {
  std::printf("%s %.10g %s n=%llu\n", Name.c_str(), Value, Unit,
              static_cast<unsigned long long>(Samples));
  std::fflush(stdout);
}

void Report::echo(const std::string &Line) {
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

void Report::archive(const std::string &Name, uint64_t Bytes, uint32_t Crc) {
  std::printf("archive %s bytes=%llu crc32=%08x\n", Name.c_str(),
              static_cast<unsigned long long>(Bytes), Crc);
  std::fflush(stdout);
}

bool Report::check(bool Ok, const std::string &What) {
  ++Checks;
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "pipeline_e2e: check failed: %s\n", What.c_str());
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::string Bench::path(const std::string &Name) const {
  return Opt.WorkDir + "/" + Name;
}

int Bench::run(Workload &W) {
  Out.echo("workload " + Opt.Workload);
  Out.echo("seed " + std::to_string(Opt.Seed));

  std::vector<double> SetupS;
  for (unsigned I = 0, Runs = Opt.Smoke ? 1 : 3; I != Runs; ++I) {
    double Start = nowUs();
    W.setup();
    SetupS.push_back((nowUs() - Start) / 1e6);
  }
  W.echoInputs();
  W.rep(RepKind::Warmup);
  W.echoArchives();

  uint32_t NextRepId = 1;
  auto RunRep = [&](RepKind Kind) {
    bool Traced = Kind == RepKind::Traced;
    Spans.setRep(Traced ? NextRepId++ : 0);
    Spans.setActive(Traced);
    double Start = nowUs();
    {
      SpanScope Rep(Spans, "bench.rep");
      W.rep(Kind);
    }
    Spans.setActive(false);
    return (nowUs() - Start) / 1000.0;
  };

  // Off reps (and, in the spans run, traced reps alternating with them
  // so both see the same machine state) until the budget is spent.
  std::vector<double> OffMs, TracedMs, ArmedMs;
  unsigned MinReps = Opt.Smoke ? 1 : W.minReps();
  double BudgetUs = Opt.Smoke ? 0 : Opt.Seconds * 1e6;
  double Start = nowUs();
  while (OffMs.size() < MinReps || nowUs() - Start < BudgetUs) {
    OffMs.push_back(RunRep(RepKind::Timed));
    if (Opt.Trace == TraceMode::Spans)
      TracedMs.push_back(RunRep(RepKind::Traced));
  }

  if (Opt.Trace == TraceMode::Spans) {
    Spans.setRep(0);
    Spans.setActive(true);
    W.extras();
    Spans.setActive(false);
  }

  if (Opt.Trace != TraceMode::Off) {
    // Armed reps come last: arming flips process-wide switches.
    obs::setMetricsEnabled(true);
    obs::setMemTrackingEnabled(true);
    obs::names::registerCanonicalMetrics(obs::metrics());
    unsigned ArmedReps = Opt.Smoke ? 1 : 2;
    for (unsigned I = 0; I != ArmedReps; ++I) {
      obs::metrics().reset();
      obs::memTracker().reset();
      ArmedMs.push_back(RunRep(RepKind::Armed));
    }
    obs::publishMemMetrics(obs::metrics());
    obs::setMetricsEnabled(false);
    obs::setMemTrackingEnabled(false);
    double Off = median(OffMs);
    Out.metric("obs.overhead_pct", 100.0 * (median(ArmedMs) - Off) / Off, "%",
               ArmedMs.size());
    for (const char *Name :
         {obs::names::PartitionUniqueTraces, obs::names::DbbChains,
          obs::names::LzwDictEntries})
      Out.metric(Name, static_cast<double>(registryValue(Name)), "count", 1);
    double TrackedPeak =
        static_cast<double>(registryValue(obs::names::MemTrackedPeakBytes));
    Out.metric(obs::names::MemTrackedPeakBytes, TrackedPeak, "bytes", 1);
    Out.metric("mem.tracked_peak_mb", TrackedPeak / (1024.0 * 1024.0), "MiB",
               1);
    if (Opt.Trace == TraceMode::Armed && !Opt.TraceOut.empty())
      Out.check(obs::writeMetricsJsonFile(Opt.TraceOut, obs::metrics()),
                "write registry dump " + Opt.TraceOut);
  }

  LayerProfile Layers = buildLayerProfile(Spans, TracedMs);
  W.finish(Layers);
  if (Opt.Trace == TraceMode::Spans) {
    reportLayerShares(Out, Layers, OffMs);
    if (!Opt.TraceOut.empty())
      Out.check(Spans.writeChromeJson(Opt.TraceOut),
                "write trace " + Opt.TraceOut);
  }

  Out.metric("setup_s", median(SetupS), "s", SetupS.size());
  Out.metric("peak_rss_mb", peakRssMb(), "MiB", 1);
  Out.metric("fail_share",
             Out.checks() ? static_cast<double>(Out.failures()) / Out.checks()
                          : 0,
             "ratio", Out.checks());
  Out.echo("checks attempted=" + std::to_string(Out.checks()) +
           " failed=" + std::to_string(Out.failures()));
  return Out.failures() == 0 ? 0 : 1;
}
