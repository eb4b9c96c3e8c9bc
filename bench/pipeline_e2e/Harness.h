//===- bench/pipeline_e2e/Harness.h - End-to-end bench plumbing -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the pipeline_e2e benchmark: options, the span
/// recorder that times each layer from outside (a span wraps the bench's
/// call into that layer's public function), the metric/check report, and
/// Bench::run, which runs set-up, the warm-up rep and the timed reps of one
/// workload. README.md in this directory documents workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_BENCH_PIPELINE_E2E_HARNESS_H
#define TWPP_BENCH_PIPELINE_E2E_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace twpp::e2e {

/// --trace: off = end-to-end metrics only; spans = per-layer metrics from
/// spans around each layer call, then armed reps; armed = telemetry armed
/// inside the program (counters and obs.overhead_pct only).
enum class TraceMode { Off, Spans, Armed };

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  TraceMode Trace = TraceMode::Off;
  std::string TraceOut; ///< Chrome trace-event JSON of the spans run.
  std::string WorkDir = ".";
  double Seconds = 10; ///< Timed-rep budget of the off reps.
  bool Smoke = false;  ///< Test-scale inputs, one rep of each kind.
};

/// Microseconds on the steady clock since the first call.
double nowUs();

/// Linear-interpolated percentile (\p Q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> Values, double Q);
inline double median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

/// 64-bit FNV-1a over raw bytes, for "same input, same output" checks.
uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = 0);

/// Spans recorded around layer calls: name ("module.layer"), start, end,
/// parent span and rep id (the identifier every span of one rep shares).
/// Inactive recorders cost one branch per scope.
class SpanRecorder {
public:
  struct Span {
    const char *Name = "";
    std::string Label; ///< Profile or archive the call worked on.
    int32_t Parent = -1;
    uint32_t Rep = 0;
    double StartUs = 0;
    double EndUs = 0;
    uint64_t Calls = 1; ///< Layer calls the span wraps (batched spans > 1).
  };

  bool active() const { return Active; }
  void setActive(bool On) { Active = On; }
  void setRep(uint32_t Rep) { CurrentRep = Rep; }

  int32_t open(const char *Name, const std::string &Label);
  void close(int32_t Id, uint64_t Calls);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> selfTimesUs() const;

  /// Chrome trace-event JSON ("X" events, one thread).
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Active = false;
  uint32_t CurrentRep = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span around one layer call (or a batch of calls of one layer).
class SpanScope {
public:
  SpanScope(SpanRecorder &Rec, const char *Name, const std::string &Label = {})
      : Rec(Rec), Id(Rec.active() ? Rec.open(Name, Label) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      Rec.close(Id, Calls);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  void setCalls(uint64_t N) { Calls = N; }

private:
  SpanRecorder &Rec;
  int32_t Id;
  uint64_t Calls = 1;
};

/// Self time per layer, averaged per traced rep, from the spans of reps
/// (spans outside reps, rep 0, are the spans-only extras).
struct LayerProfile {
  struct Entry {
    double SelfMs = 0;  ///< Per traced rep.
    double TotalMs = 0; ///< Per traced rep, children included.
    double Calls = 0;   ///< Per traced rep.
  };
  /// Keyed by span name, and by "<name>.<label>" for labelled spans.
  std::map<std::string, Entry> Layers;
  double RepWallMs = 0; ///< Median wall time of a traced rep.
  unsigned Reps = 0;

  const Entry &at(const std::string &Name) const;
};

/// Metric lines and correctness checks. Every metric prints as
/// "name value unit n=<samples>".
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit,
              uint64_t Samples);
  /// Prints a free-form echo line ("seed 3", "input 099.go events=...").
  void echo(const std::string &Line);
  /// Prints "archive <name> bytes=<n> crc32=<hex>".
  void archive(const std::string &Name, uint64_t Bytes, uint32_t Crc);
  /// Counts one check; a failure is described on stderr.
  bool check(bool Ok, const std::string &What);

  uint64_t checks() const { return Checks; }
  uint64_t failures() const { return Failures; }

private:
  uint64_t Checks = 0;
  uint64_t Failures = 0;
};

/// What one rep is for.
enum class RepKind {
  Warmup, ///< Untimed; runs the expensive per-rep checks.
  Timed,  ///< Off: feeds the end-to-end metrics.
  Traced, ///< Spans recorded around every layer call.
  Armed,  ///< Program telemetry armed (obs::setMetricsEnabled).
};

/// The sample set a rep of \p Kind feeds: off reps feed the end-to-end
/// metrics, traced reps the per-layer ones, warm-up and armed reps none.
template <typename T> T *samplesFor(RepKind Kind, T &Timed, T &Traced) {
  if (Kind == RepKind::Timed)
    return &Timed;
  if (Kind == RepKind::Traced)
    return &Traced;
  return nullptr;
}

class Bench;

/// One workload as Bench::run runs it. setup() runs several times (its
/// median is setup_s) and each call replaces the previous inputs.
class Workload {
public:
  explicit Workload(Bench &B) : B(B) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  virtual void setup() = 0;
  /// Input sizes after the last set-up.
  virtual void echoInputs() = 0;
  virtual void rep(RepKind Kind) = 0;
  /// Archive sizes and crc32s, after the warm-up rep.
  virtual void echoArchives() = 0;
  /// Spans-only measurements outside the reps (oracles, U-file scans).
  virtual void extras() {}
  /// Untimed final checks and the workload's metrics. \p Layers is empty
  /// unless spans were recorded.
  virtual void finish(const LayerProfile &Layers) = 0;
  /// Off reps Bench::run runs at least, even past the time budget.
  virtual unsigned minReps() const { return 3; }

protected:
  Bench &B;
};

/// Process-wide state of one run.
class Bench {
public:
  explicit Bench(Options Opt) : Opt(std::move(Opt)) {}

  const Options &options() const { return Opt; }
  SpanRecorder &spans() { return Spans; }
  Report &report() { return Out; }

  /// Path of a scratch file in the work directory.
  std::string path(const std::string &Name) const;

  /// Runs \p W end to end. \returns the process exit code.
  int run(Workload &W);

private:
  Options Opt;
  SpanRecorder Spans;
  Report Out;
};

std::unique_ptr<Workload> makeCompactWorkload(Bench &B);
std::unique_ptr<Workload> makeIngestWorkload(Bench &B);
std::unique_ptr<Workload> makeQueryWorkload(Bench &B);
std::unique_ptr<Workload> makeAnalyzeWorkload(Bench &B);

/// "099.go" -> "go": the suffix of per-profile metric names.
std::string shortProfileName(const std::string &Name);

} // namespace twpp::e2e

#endif // TWPP_BENCH_PIPELINE_E2E_HARNESS_H
