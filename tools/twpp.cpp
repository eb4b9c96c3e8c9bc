//===- tools/twpp.cpp - The twpp command line -----------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// One binary for every operation on the representation:
//
//   twpp [global flags] <verb> [flags] [args...]
//
// The verb table below names each verb, its positional arguments, its
// flag table and its body (one source file per verb family, Verbs.h).
// The driver owns what every verb shares: the global flags (parallelism
// and the telemetry sinks, accepted before or after the verb), the
// TWPP_VERIFY pipeline assertions, and the 0/1/2 exit contract of
// support/CliCommon.h.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "obs/TelemetrySession.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::tool;

namespace {

constexpr size_t Many = SIZE_MAX;

cli::FlagTable noFlags() { return {}; }

const std::vector<std::string> TextJson = {"text", "json"};

const VerbSpec Verbs[] = {
    {"trace", "<program.mini> <archive.twpp> [input...]",
     "run a program, compacting its WPP online into an archive", 2, Many,
     traceFlags, runTrace},
    {"stats", "<archive.twpp>", "per-function summary of an archive", 1, 1,
     noFlags, runStats},
    {"query", "<archive.twpp> <function-id>",
     "extract one function's path traces", 2, 2, noFlags, runQuery},
    {"dot-dcg", "<archive.twpp>", "Graphviz rendering of the call graph", 1, 1,
     noFlags, runDotDcg},
    {"dot-trace", "<archive.twpp> <function-id> <trace-index>",
     "Graphviz rendering of one annotated dynamic CFG", 3, 3, noFlags,
     runDotTrace},
    {"reconstruct", "<archive.twpp> <out.owpp>",
     "expand an archive back to the linear WPP", 2, 2, noFlags,
     runReconstruct},
    {"verify", "[archive.twpp...]",
     "static invariant checks; 1 = error diagnostics", 0, Many, verifyFlags,
     runVerify, TextJson},
    {"recover", "<damaged.twpp> <recovered.twpp>",
     "salvage a damaged archive; 1 = cannot salvage", 2, 2, noFlags,
     runRecover, TextJson},
    {"memstat", "<archive.twpp...>",
     "where an archive's bytes live; 1 = the memory audit disagrees", 1, Many,
     memstatFlags, runMemstat, TextJson},
    {"selfprof", "<archive.twppa>",
     "hottest paths of a self-profile; 1 = sidecar mismatch", 1, 1,
     selfprofFlags, runSelfprof, {"text", "json", "collapsed"}},
    {"races", "<archive.twpp...>", "detect data races; 1 = races found", 1,
     Many, noFlags, runRaces, TextJson},
    {"ingest", "replay|serve|produce",
     "compact wire streams from N producers; 1 = accounted loss", 1, 1,
     ingestFlags, runIngest, TextJson},
    {"metrics-diff", "<baseline> <current>",
     "compare metrics exports; 1 = a metric regressed", 2, 2,
     metricsDiffFlags, runMetricsDiff},
};

/// The flags every verb accepts: the telemetry sinks.
obs::TelemetrySession Telemetry;

/// The value of the verb's `--format` flag.
std::string ReportFormat = "text";

/// The verb's own flags, and `--format` when it has report formats.
cli::FlagTable verbFlags(const VerbSpec &V) {
  cli::FlagTable Flags = V.Flags();
  if (!V.Formats.empty())
    Flags.push_back(
        cli::choiceFlag("format", "report format", ReportFormat,
                        V.Formats));
  return Flags;
}

/// The verb is the first positional word under that verb's own flag
/// table, which tells `--resume JOURNAL trace` from `--resume ingest`.
const VerbSpec *findVerb(const std::vector<std::string> &Args,
                         const cli::FlagTable &GlobalFlags) {
  for (const VerbSpec &V : Verbs) {
    cli::FlagTable Flags = verbFlags(V);
    std::vector<std::string> Words;
    cli::parseArgs(Args, {&Flags, &GlobalFlags}, Words, nullptr);
    if (!Words.empty() && Words[0] == V.Name)
      return &V;
  }
  return nullptr;
}

/// Prints the twpp-report-v1 envelope around what \p Verb reported.
void printReport(const VerbSpec &Verb, int Exit, Report &R) {
  obs::JsonWriter W;
  W.beginObject()
      .field("schema", "twpp-report-v1")
      .field("verb", Verb.Name)
      .field("exit", Exit)
      .key("diagnostics");
  verify::writeDiagnosticsJson(W, R.Diagnostics);
  W.key("body").raw(R.Body.finish());
  std::printf("%s\n", W.finish().c_str());
}

} // namespace

int tool::Invocation::usage(const std::string &Why) const {
  std::string Text = "twpp: " + Why + "\n";
  if (Verb) {
    std::string Flags = cli::renderFlags(verbFlags(*Verb));
    Text += "usage: twpp " + std::string(Verb->Name) + " [flags] " +
            Verb->Synopsis + "\n  " + Verb->Summary + "\n" +
            (Flags.empty() ? "" : "flags:\n" + Flags);
  } else {
    Text += "usage: twpp [flags] <verb> [flags] [args...]\nverbs:\n";
    for (const VerbSpec &V : Verbs)
      Text += "  " + std::string(V.Name) + " " + V.Synopsis + "\n      " +
              V.Summary + "\n";
  }
  Text += "global flags, before or after the verb:\n" +
          cli::renderFlags(Telemetry.flags()) +
          "exit codes: 0 clean, 1 findings or failure, 2 usage or fatal IO\n";
  std::fputs(Text.c_str(), stderr);
  return cli::ExitUsage;
}

int tool::Invocation::unusable(
    const std::string &Path,
    const std::vector<verify::Diagnostic> &Why) const {
  for (const verify::Diagnostic &D : Why)
    std::fprintf(stderr, "twpp %s: %s: [%s] %s (%s)\n", Verb->Name,
                 Path.c_str(), D.CheckId.c_str(), D.Message.c_str(),
                 D.Location.c_str());
  if (Json)
    Json->Diagnostics = Why;
  return cli::ExitUsage;
}

void tool::appendf(std::string &Out, const char *Format, ...) {
  va_list Args, Sizing;
  va_start(Args, Format);
  va_copy(Sizing, Args);
  int Length = std::vsnprintf(nullptr, 0, Format, Sizing);
  va_end(Sizing);
  size_t At = Out.size();
  Out.resize(At + static_cast<size_t>(std::max(Length, 0)) + 1);
  std::vsnprintf(&Out[At], Out.size() - At, Format, Args);
  va_end(Args);
  Out.pop_back(); // vsnprintf's terminating NUL
}

int main(int Argc, char **Argv) {
  // Arm the TWPP_VERIFY post-stage assertions; they fire only when the
  // environment variable is set.
  verify::installPipelineVerifier();
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  cli::FlagTable GlobalFlags = Telemetry.flags();
  Invocation Inv;
  Inv.Verb = findVerb(Args, GlobalFlags);
  if (!Inv.Verb) {
    cli::parseArgs(Args, {&GlobalFlags}, Inv.Args, nullptr);
    return Inv.usage(Inv.Args.empty() ? "no verb given"
                                      : "unknown verb '" + Inv.Args[0] + "'");
  }
  const VerbSpec *Verb = Inv.Verb;
  cli::FlagTable VerbFlags = verbFlags(*Verb);
  std::string Error;
  if (!cli::parseArgs(Args, {&VerbFlags, &GlobalFlags}, Inv.Args, &Error))
    return Inv.usage(Error);
  Inv.Args.erase(Inv.Args.begin()); // the verb's own name
  if (Inv.Args.size() < Verb->MinArgs || Inv.Args.size() > Verb->MaxArgs)
    return Inv.usage("wrong number of arguments");
  Inv.Format = ReportFormat;
  Report Json;
  if (ReportFormat == "json") {
    Json.Body.beginObject();
    Inv.Json = &Json;
  }

  Telemetry.start();
  int Exit = Verb->Run(Inv);
  if (Inv.Json)
    printReport(*Verb, Exit, Json);
  return Telemetry.finish(Exit);
}
