//===- tools/twpp_recover.cpp - Torn-archive salvage CLI ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Salvages what remains of a damaged TWPP archive (verify/Recover.h):
//
//   twpp_recover damaged.twpp recovered.twpp
//   twpp_recover --format=json damaged.twpp recovered.twpp
//   twpp_recover --report=salvage.json damaged.twpp recovered.twpp
//
// The index layout makes every function block an independent extent, so
// salvage keeps each block that decodes and passes the verifier's
// per-table checks, splices dropped functions out of the dynamic call
// graph, rewrites a fresh archive and re-verifies it end to end before
// declaring success. The output is either verifier-clean or absent.
//
//   --format=FMT    report format on stdout: text (default) or json
//   --report=FILE   additionally write the JSON report to FILE (for CI
//                   artifacts), whatever --format says
//
// Exit codes: 0 a verifier-clean archive was written (possibly with
// data loss — see the report), 1 the archive cannot be salvaged (the
// report names why), 2 usage or IO failure — the same contract as
// twpp_verify.
//
//===----------------------------------------------------------------------===//

#include "support/CliCommon.h"
#include "support/FileIO.h"
#include "verify/Recover.h"
#include "wpp/Archive.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::recover;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_recover [options] damaged.twpp recovered.twpp\n"
      "  --format=FMT    stdout report format: text (default) or json\n"
      "  --report=FILE   also write the JSON report to FILE\n"
      "exit codes: 0 salvaged (verifier-clean output written), 1 cannot\n"
      "salvage (report names why), 2 usage/IO error\n");
  return cli::ExitUsage;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Format = "text";
  std::string ReportPath;
  std::vector<std::string> Paths;

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
    if (Arg.rfind("--report=", 0) == 0) {
      ReportPath = Arg.substr(9);
    } else if (Arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.size() != 2)
    return usage();

  std::vector<uint8_t> Bytes;
  IoError Read = readFileBytes(Paths[0], Bytes);
  if (!Read) {
    std::fprintf(stderr, "twpp_recover: %s\n", Read.message().c_str());
    return cli::ExitUsage;
  }

  std::vector<uint8_t> Out;
  SalvageReport Report;
  salvageArchive(Bytes, Out, Report);

  std::string Rendered = Format == "json" ? renderSalvageReportJson(Report)
                                          : renderSalvageReportText(Report);
  std::fputs(Rendered.c_str(), stdout);
  if (!ReportPath.empty()) {
    std::vector<uint8_t> Json;
    std::string JsonText = renderSalvageReportJson(Report);
    Json.assign(JsonText.begin(), JsonText.end());
    IoError Write = writeFileBytes(ReportPath, Json);
    if (!Write) {
      std::fprintf(stderr, "twpp_recover: %s\n", Write.message().c_str());
      return cli::ExitUsage;
    }
  }
  if (!Report.Salvaged)
    return cli::ExitFindings;

  IoError Write = writeFileBytesAtomic(Paths[1], Out);
  if (!Write) {
    std::fprintf(stderr, "twpp_recover: %s\n", Write.message().c_str());
    return cli::ExitUsage;
  }
  return cli::ExitSuccess;
}
