//===- tools/Verbs.h - The verbs of the twpp command line -------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the verb table in tools/twpp.cpp needs from each verb: a flag
/// table bound to the verb's own options, and a body that runs once the
/// driver has parsed them. A report verb prints text itself; under
/// `--format=json` it only fills a Report, which the driver prints as one
/// twpp-report-v1 document (docs/FORMATS.md). One source file per verb
/// family:
///
///   ArchiveVerbs.cpp     trace, stats, query, dot-dcg, dot-trace,
///                        reconstruct
///   VerifyVerb.cpp       verify
///   RecoverVerb.cpp      recover
///   MemstatVerb.cpp      memstat
///   SelfprofVerb.cpp     selfprof
///   RacesVerb.cpp        races
///   IngestVerb.cpp       ingest replay|serve|produce
///   MetricsDiffVerb.cpp  metrics-diff
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TOOLS_VERBS_H
#define TWPP_TOOLS_VERBS_H

#include "obs/Json.h"
#include "support/CliCommon.h"
#include "verify/Diagnostics.h"

#include <cstddef>
#include <string>
#include <vector>

namespace twpp {

class ArchiveReader;
struct Module;

namespace tool {

struct VerbSpec;

/// What a verb reports under `--format=json`: the fields of its body and
/// its diagnostics (verify's and recover's findings, or why an input was
/// unusable). The driver adds the schema, the verb's name and its exit
/// code.
struct Report {
  obs::JsonWriter Body; ///< Already inside the body object.
  std::vector<verify::Diagnostic> Diagnostics;
};

/// What the driver hands a verb: the positional words after the verb's
/// name, their count already checked against the table, and the report
/// format.
struct Invocation {
  const VerbSpec *Verb = nullptr;
  std::vector<std::string> Args;
  std::string Format = "text"; ///< One of the verb's Formats.
  Report *Json = nullptr;      ///< Set under `--format=json` only.

  /// Prints \p Why and the verb's usage to stderr. \returns cli::ExitUsage.
  int usage(const std::string &Why) const;

  /// Says on stderr why the input \p Path is unusable, one
  /// `twpp <verb>: <path>: [check] message (location)` line per
  /// diagnostic, and puts \p Why in the JSON report. \returns
  /// cli::ExitUsage.
  int unusable(const std::string &Path,
               const std::vector<verify::Diagnostic> &Why) const;
};

/// Appends printf-style formatted text, of any length, to \p Out.
__attribute__((format(printf, 2, 3))) void appendf(std::string &Out,
                                                   const char *Format, ...);

/// Opens the archive at \p Path; says why on stderr when it cannot.
bool openArchive(const std::string &Path, ArchiveReader &Reader);

/// Reads and compiles the mini-language program at \p Path; says why on
/// stderr when it cannot.
bool loadProgram(const std::string &Path, Module &M);

/// One row of the verb table.
struct VerbSpec {
  const char *Name;
  const char *Synopsis; ///< The positional arguments, as usage shows them.
  const char *Summary;  ///< One line, with what exit code 1 means.
  size_t MinArgs;
  size_t MaxArgs;
  cli::FlagTable (*Flags)(); ///< The verb's own flags.
  int (*Run)(const Invocation &Inv);
  /// The values of the verb's `--format` flag, "text" (the default)
  /// among them; a verb with none has no such flag.
  std::vector<std::string> Formats = {};
};

cli::FlagTable traceFlags();
int runTrace(const Invocation &Inv);
int runStats(const Invocation &Inv);
int runQuery(const Invocation &Inv);
int runDotDcg(const Invocation &Inv);
int runDotTrace(const Invocation &Inv);
int runReconstruct(const Invocation &Inv);

cli::FlagTable verifyFlags();
int runVerify(const Invocation &Inv);

int runRecover(const Invocation &Inv);

cli::FlagTable memstatFlags();
int runMemstat(const Invocation &Inv);

cli::FlagTable selfprofFlags();
int runSelfprof(const Invocation &Inv);

int runRaces(const Invocation &Inv);

cli::FlagTable ingestFlags();
int runIngest(const Invocation &Inv);

cli::FlagTable metricsDiffFlags();
int runMetricsDiff(const Invocation &Inv);

} // namespace tool
} // namespace twpp

#endif // TWPP_TOOLS_VERBS_H
