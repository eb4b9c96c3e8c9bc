//===- tools/twpp_verify.cpp - TWPP invariant verifier CLI ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Runs the static invariant checks (src/verify/) over archives, lowered
// mini-language programs, or both, and reports clang-tidy style
// diagnostics with stable check ids:
//
//   twpp_verify out.twpp
//   twpp_verify --checks='twpp-archive-*' out.twpp
//   twpp_verify --program prog.mini --format=json out.twpp
//   twpp_verify --list-checks
//
// Archive checks run on the raw bytes without reconstructing the WPP:
// header/index layout first, then the decoded compacted form (series
// order, trace partitions, DBB dictionaries, dedup tables, DCG). With
// --program, the module is lowered and the IR family runs (CFG edges,
// terminators, reachability, def-before-use), plus the dataflow family
// over per-variable GEN/KILL fact specs. When both an archive and a
// program are given, annotated dynamic CFGs are built from every unique
// trace and checked against their owning traces.
//
//   --checks=GLOB     only run checks whose id matches GLOB (default *)
//   --format=FMT      text (default) or json
//   --list-checks     print the catalog (id, severity, summary) and exit
//   --program FILE    lower FILE and run the IR/dataflow families
//
// Exit codes: 0 no error-severity diagnostics, 1 at least one error
// diagnostic, 2 usage or IO failure — the same contract as
// twpp_metrics_diff.
//
//===----------------------------------------------------------------------===//

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/IrFacts.h"
#include "lang/Lower.h"
#include "support/CliCommon.h"
#include "support/FileIO.h"
#include "verify/Verify.h"
#include "wpp/Archive.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::verify;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: twpp_verify [options] [archive.twpp...]\n"
      "  --checks=GLOB   only run checks matching GLOB (default '*')\n"
      "  --format=FMT    output format: text (default) or json\n"
      "  --list-checks   print every check id with severity and summary\n"
      "  --program FILE  lower FILE (mini language) and run the IR and\n"
      "                  dataflow check families\n"
      "exit codes: 0 clean, 1 error diagnostics, 2 usage/IO error\n");
  return cli::ExitUsage;
}

int listChecks() {
  for (const CheckInfo &Info : checkCatalog())
    std::printf("%-36s %-8s %s\n", Info.Id, severityName(Info.DefaultSev),
                Info.Summary);
  return 0;
}

/// Runs the dataflow family over every per-variable fact spec of \p M.
void runFactChecks(const Module &M, DiagnosticEngine &Engine) {
  for (const Function &F : M.Functions) {
    // Variables the function touches: params plus statement targets/uses.
    std::vector<VarId> Vars(F.Params.begin(), F.Params.end());
    for (const BasicBlock &Block : F.Blocks)
      for (const Stmt &St : Block.Stmts) {
        if (St.Target != NoVar)
          Vars.push_back(St.Target);
        for (VarId Use : stmtUses(F, St))
          Vars.push_back(Use);
      }
    std::sort(Vars.begin(), Vars.end());
    Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
    for (VarId Var : Vars) {
      runFactSpecChecks(availabilityFact(F, Var), F,
                        "availability(" + M.varName(Var) + ")", Engine);
      runFactSpecChecks(definedFact(F, Var), F,
                        "defined(" + M.varName(Var) + ")", Engine);
    }
  }
}

/// Builds the annotated dynamic CFG of every unique trace in \p Path's
/// archive and checks it against its owning trace.
bool runAnnotationChecks(const std::string &Path, DiagnosticEngine &Engine) {
  TwppWpp Wpp;
  ArchiveReader Reader;
  if (!Reader.open(Path) || !Reader.readAll(Wpp))
    return true; // the byte checks already diagnosed the archive
  for (size_t F = 0; F < Wpp.Functions.size(); ++F) {
    const TwppFunctionTable &Table = Wpp.Functions[F];
    for (size_t T = 0; T < Table.Traces.size(); ++T) {
      auto [StringIdx, DictIdx] = Table.Traces[T];
      if (StringIdx >= Table.TraceStrings.size() ||
          DictIdx >= Table.Dictionaries.size())
        continue;
      const TwppTrace &Trace = Table.TraceStrings[StringIdx];
      const DbbDictionary &Dict = Table.Dictionaries[DictIdx];
      AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, Dict);
      std::string Loc = Path + " / function " + std::to_string(F) +
                        " / trace " + std::to_string(T);
      runAnnotatedCfgChecks(Cfg, Loc, Engine);
      runAnnotationSourceChecks(Cfg, Trace, Dict, Loc, Engine);
    }
  }
  return true;
}

bool anyDataflowCheckEnabled(const DiagnosticEngine &Engine) {
  for (const CheckInfo &Info : checkCatalog())
    if (std::strncmp(Info.Id, "twpp-dataflow-", 14) == 0 &&
        Engine.checkEnabled(Info.Id))
      return true;
  return false;
}

bool anyMemCheckEnabled(const DiagnosticEngine &Engine) {
  for (const CheckInfo &Info : checkCatalog())
    if (std::strncmp(Info.Id, "twpp-mem-", 9) == 0 &&
        Engine.checkEnabled(Info.Id))
      return true;
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Glob = "*";
  std::string Format = "text";
  std::string ProgramPath;
  std::vector<std::string> Archives;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-checks")
      return listChecks();
    switch (cli::parseFormatFlag(Arg, Format)) {
    case cli::FlagParse::Ok:
      continue;
    case cli::FlagParse::Bad:
      return usage();
    case cli::FlagParse::NoMatch:
      break;
    }
    if (Arg.rfind("--checks=", 0) == 0) {
      Glob = Arg.substr(9);
    } else if (Arg == "--program") {
      if (++I >= Argc)
        return usage();
      ProgramPath = Argv[I];
    } else if (Arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      Archives.push_back(Arg);
    }
  }
  if (Archives.empty() && ProgramPath.empty())
    return usage();

  DiagnosticEngine Engine(Glob);

  for (const std::string &Path : Archives) {
    if (!verifyArchiveFile(Path, Engine)) {
      std::fprintf(stderr, "twpp_verify: cannot read %s\n", Path.c_str());
      return cli::ExitUsage;
    }
    if (anyDataflowCheckEnabled(Engine))
      runAnnotationChecks(Path, Engine);
    if (anyMemCheckEnabled(Engine))
      runMemoryChecks(Path, Engine);
  }

  if (!ProgramPath.empty()) {
    std::vector<uint8_t> Bytes;
    if (!readFileBytes(ProgramPath, Bytes)) {
      std::fprintf(stderr, "twpp_verify: cannot read %s\n",
                   ProgramPath.c_str());
      return cli::ExitUsage;
    }
    std::string Source(Bytes.begin(), Bytes.end());
    Module M;
    std::string Error;
    if (!compileProgram(Source, M, Error)) {
      std::fprintf(stderr, "twpp_verify: %s: %s\n", ProgramPath.c_str(),
                   Error.c_str());
      return cli::ExitUsage;
    }
    runModuleChecks(M, Engine);
    runFactChecks(M, Engine);
  }

  std::string Out = Format == "json" ? renderDiagnosticsJson(Engine)
                                     : renderDiagnosticsText(Engine);
  std::fputs(Out.c_str(), stdout);
  return Engine.clean() ? cli::ExitSuccess : cli::ExitFindings;
}
