//===- tools/VerifyVerb.cpp - TWPP invariant verifier ---------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Runs the static invariant checks (src/verify/) over archives, lowered
// mini-language programs, or both, and reports clang-tidy style
// diagnostics with stable check ids:
//
//   twpp verify out.twpp
//   twpp verify --checks='twpp-archive-*' out.twpp
//   twpp verify --program prog.mini --format=json out.twpp
//   twpp verify --list-checks [--format=json]
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
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/IrFacts.h"
#include "lang/Lower.h"
#include "verify/Verify.h"
#include "wpp/Archive.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::tool;
using namespace twpp::verify;

namespace {

struct VerifyOptions {
  std::string Glob = "*";
  std::string ProgramPath;
  bool ListChecks = false;
} Opts;

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
void runAnnotationChecks(const std::string &Path, DiagnosticEngine &Engine) {
  TwppWpp Wpp;
  ArchiveReader Reader;
  if (!Reader.open(Path) || !Reader.readAll(Wpp))
    return; // the byte checks already diagnosed the archive
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
}

/// True when any catalog check whose id starts with \p Prefix runs.
bool anyCheckEnabled(const DiagnosticEngine &Engine, const char *Prefix) {
  for (const CheckInfo &Info : checkCatalog())
    if (std::strncmp(Info.Id, Prefix, std::strlen(Prefix)) == 0 &&
        Engine.checkEnabled(Info.Id))
      return true;
  return false;
}

} // namespace

cli::FlagTable tool::verifyFlags() {
  return {
      cli::stringFlag("checks", "GLOB", "run only the matching checks",
                      Opts.Glob),
      cli::switchFlag("list-checks", "print the check catalog",
                      Opts.ListChecks),
      cli::stringFlag("program", "FILE", "run the IR and dataflow checks",
                      Opts.ProgramPath),
  };
}

int tool::runVerify(const Invocation &Inv) {
  if (Opts.ListChecks) {
    if (Inv.Json) {
      obs::JsonWriter &W = Inv.Json->Body.beginArray("checks");
      for (const CheckInfo &Info : checkCatalog())
        W.beginObject()
            .field("id", Info.Id)
            .field("severity", severityName(Info.DefaultSev))
            .field("summary", Info.Summary)
            .end();
      W.end();
      return cli::ExitSuccess;
    }
    for (const CheckInfo &Info : checkCatalog())
      std::printf("%-36s %-8s %s\n", Info.Id, severityName(Info.DefaultSev),
                  Info.Summary);
    return cli::ExitSuccess;
  }
  const std::vector<std::string> &Archives = Inv.Args;
  if (Archives.empty() && Opts.ProgramPath.empty())
    return Inv.usage("nothing to verify: give an archive or --program");

  DiagnosticEngine Engine(Opts.Glob);

  for (const std::string &Path : Archives) {
    Diagnostic ReadError;
    if (!verifyArchiveFile(Path, Engine, &ReadError))
      return Inv.unusable(Path, {ReadError});
    if (anyCheckEnabled(Engine, "twpp-dataflow-"))
      runAnnotationChecks(Path, Engine);
    if (anyCheckEnabled(Engine, "twpp-mem-"))
      runMemoryChecks(Path, Engine);
  }

  if (!Opts.ProgramPath.empty()) {
    Module M;
    if (!loadProgram(Opts.ProgramPath, M))
      return cli::ExitUsage;
    runModuleChecks(M, Engine);
    runFactChecks(M, Engine);
  }

  if (Inv.Json)
    Inv.Json->Diagnostics = Engine.diagnostics();
  else
    std::fputs(renderDiagnosticsText(Engine).c_str(), stdout);
  return Engine.clean() ? cli::ExitSuccess : cli::ExitFindings;
}
