//===- tools/RecoverVerb.cpp - Torn-archive salvage ----------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Salvages what remains of a damaged TWPP archive (verify/Recover.h):
//
//   twpp recover damaged.twpp recovered.twpp
//   twpp recover --format=json damaged.twpp recovered.twpp > salvage.json
//
// The index layout makes every function block an independent extent, so
// salvage keeps each block that decodes and passes the verifier's
// per-table checks, splices dropped functions out of the dynamic call
// graph, rewrites a fresh archive and re-verifies it end to end before
// declaring success. The output is either verifier-clean or absent.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "support/FileIO.h"
#include "verify/Recover.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::recover;
using namespace twpp::tool;

namespace {

void reportJson(const SalvageReport &R, Report &Json) {
  Json.Diagnostics = R.Diagnostics;
  Json.Body.field("salvaged", R.Salvaged)
      .field("input_bytes", R.InputBytes)
      .field("output_bytes", R.OutputBytes)
      .field("functions_total", R.FunctionsTotal)
      .field("functions_kept", R.FunctionsKept)
      .field("functions_dropped", R.FunctionsDropped)
      .beginArray("dropped_function_ids");
  for (uint32_t Id : R.DroppedFunctions)
    Json.Body.value(Id);
  Json.Body.end()
      .field("calls_lost", R.CallsLost)
      .field("dcg_recovered", R.DcgRecovered);
}

} // namespace

int tool::runRecover(const Invocation &Inv) {
  const std::vector<std::string> &Paths = Inv.Args;
  std::vector<uint8_t> Bytes;
  IoError Read = readFileBytes(Paths[0], Bytes);
  if (!Read) {
    std::fprintf(stderr, "twpp recover: %s\n", Read.message().c_str());
    return cli::ExitUsage;
  }

  std::vector<uint8_t> Out;
  SalvageReport Report;
  salvageArchive(Bytes, Out, Report);

  if (Inv.Json)
    reportJson(Report, *Inv.Json);
  else
    std::fputs(renderSalvageReportText(Report).c_str(), stdout);
  if (!Report.Salvaged)
    return cli::ExitFindings;

  IoError Write = writeFileBytesAtomic(Paths[1], Out);
  if (!Write) {
    std::fprintf(stderr, "twpp recover: %s\n", Write.message().c_str());
    return cli::ExitUsage;
  }
  return cli::ExitSuccess;
}
