//===- examples/profile_merge.cpp - Aggregating runs into one profile ------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Profile databases accumulate many executions. This example runs the
// same program on several inputs, compacts each run online, merges the
// runs into one WPP (redundant path traces are eliminated *across* runs
// too), and shows what the merged archive answers.
//
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "wpp/Archive.h"
#include "wpp/HotPaths.h"
#include "wpp/Merge.h"
#include "wpp/Sizes.h"
#include "wpp/Streaming.h"

#include <cstdio>

using namespace twpp;

int main() {
  const char *Source = R"(
    fn classify(v) {
      if (v < 0) { return 0 - 1; }
      if (v == 0) { return 0; }
      return 1;
    }
    fn main() {
      read n;
      i = 0;
      while (i < n) {
        read v;
        c = call classify(v);
        print c;
        i = i + 1;
      }
    }
  )";
  Module M;
  std::string Error;
  if (!compileProgram(Source, M, Error)) {
    std::fprintf(stderr, "compile error: %s\n", Error.c_str());
    return 1;
  }

  // Three runs with different input mixes.
  std::vector<std::vector<int64_t>> Inputs = {
      {3, -5, 2, 0},       // one of each class
      {4, 1, 2, 3, 4},     // all positive
      {2, -1, -2},         // all negative
  };
  std::vector<PartitionedWpp> Runs;
  for (const auto &RunInputs : Inputs) {
    StreamingCompactor Sink(static_cast<uint32_t>(M.Functions.size()));
    Interpreter Interp(M, Sink);
    ExecutionResult Result = Interp.run(RunInputs);
    if (!Result.Completed) {
      std::fprintf(stderr, "run failed: %s\n", Result.Error.c_str());
      return 1;
    }
    Runs.push_back(Sink.takePartitioned());
  }

  const Function *Classify = M.findFunction("classify");
  for (size_t R = 0; R < Runs.size(); ++R)
    std::printf("run %zu: classify called %llu times, %zu unique paths\n",
                R,
                (unsigned long long)Runs[R]
                    .Functions[Classify->Id]
                    .CallCount,
                Runs[R].Functions[Classify->Id].UniqueTraces.size());

  std::vector<const PartitionedWpp *> Pointers;
  for (const PartitionedWpp &Run : Runs)
    Pointers.push_back(&Run);
  PartitionedWpp Merged = mergePartitionedWpps(Pointers);
  TwppWpp Compacted = convertToTwpp(applyDbbCompaction(Merged));

  const TwppFunctionTable &Table = Compacted.Functions[Classify->Id];
  std::printf("\nmerged: classify called %llu times across %zu runs, "
              "still only %zu unique paths\n",
              (unsigned long long)Table.CallCount, Runs.size(),
              Table.Traces.size());
  for (const HotPath &Path : hotPathsOf(expandFunctionTraces(Table))) {
    std::printf("  x%llu:", (unsigned long long)Path.UseCount);
    for (BlockId B : Path.Blocks)
      std::printf(" %u", B);
    std::printf("\n");
  }
  std::printf("DCG forest roots (one per run): %zu\n",
              Compacted.Dcg.Roots.size());
  return 0;
}
