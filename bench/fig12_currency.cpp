//===- bench/fig12_currency.cpp - Paper Figure 12 --------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Figure 12: dynamic currency determination. Partial dead code
// elimination moved the second assignment to X from block 1 into block 2
// (the branch side that uses it). At a breakpoint in block 3, X's value
// in the optimized execution is current iff the executed path went
// through block 2 — decidable from the timestamped block trace.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "ir/SinkAssignments.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "slicing/Currency.h"
#include "support/TablePrinter.h"
#include "trace/UncompactedFile.h"

#include <cstdio>

using namespace twpp;

namespace {

/// The same scenario produced automatically: compile the figure's
/// program, run the PDE-style sinking pass, derive the currency problem
/// from the move log, and judge both executed paths.
void fromSource() {
  Module M;
  std::string Error;
  if (!compileProgram("fn main() {"
                      "  read p;"
                      "  x = 1;"
                      "  x = 2;"
                      "  if (p > 0) { y = x; } else { y = 5; }"
                      "  print y;"
                      "}",
                      M, Error)) {
    std::fprintf(stderr, "compile error: %s\n", Error.c_str());
    return;
  }
  const Function &Main = M.Functions[M.MainId];
  SinkResult Sunk = sinkPartiallyDeadAssignments(Main);
  CurrencyProblem Problem =
      currencyProblemFor(Main, Sunk, M.internVar("x"));

  TablePrinter Table(
      "Figure 12 (from source): PDE pass sank x's assignment; verdicts "
      "from the executed trace");
  Table.addRow({"Input", "Executed blocks", "Verdict"});
  for (int64_t P : {+1, -1}) {
    ExecutionResult Result;
    RawTrace Trace = traceExecution(M, {P}, Result);
    std::vector<std::vector<BlockId>> BlockTraces;
    extractFunctionTraces(Trace, Main.Id, BlockTraces);
    AnnotatedDynamicCfg Cfg =
        buildAnnotatedCfgFromSequence(BlockTraces[0]);
    Currency Verdict = checkCurrency(
        Cfg, static_cast<Timestamp>(BlockTraces[0].size()), Problem);
    std::string Path;
    for (BlockId B : BlockTraces[0])
      Path += (Path.empty() ? "" : ".") + std::to_string(B);
    Table.addRow({P > 0 ? "p=+1" : "p=-1", Path,
                  Verdict == Currency::Current ? "X is current"
                                               : "X is non-current"});
  }
  Table.print();
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchTelemetry Telemetry(Argc, Argv, "fig12_currency");
  CurrencyProblem Problem;
  // DefId 1: the first assignment to X (stays in block 1).
  // DefId 2: the partially dead assignment (block 1 -> block 2 after PDE).
  Problem.OriginalDefs = {{1, 1, 0}, {2, 1, 1}};
  Problem.OptimizedDefs = {{1, 1, 0}, {2, 2, 0}};

  TablePrinter Table("Figure 12: currency of X at the breakpoint (block 3)");
  Table.addRow({"Executed path", "Verdict", "Paper"});

  AnnotatedDynamicCfg Left = buildAnnotatedCfgFromSequence({1, 2, 3});
  Table.addRow({"1 -> 2 -> 3",
                checkCurrency(Left, 3, Problem) == Currency::Current
                    ? "X is current"
                    : "X is non-current",
                "X is current"});

  AnnotatedDynamicCfg Right = buildAnnotatedCfgFromSequence({1, 4, 3});
  Table.addRow({"1 -> 4 -> 3",
                checkCurrency(Right, 3, Problem) == Currency::Current
                    ? "X is current"
                    : "X is non-current",
                "X is non-current"});
  Table.print();

  fromSource();
  return Telemetry.finish(0);
}
