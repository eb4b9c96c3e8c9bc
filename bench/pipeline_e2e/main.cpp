//===- bench/pipeline_e2e/main.cpp - Seeded end-to-end benchmark ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// One seeded benchmark for the write path, the read path and the
// analyses:
//
//   pipeline_e2e --workload compact|ingest|query|analyze --seed S
//                [--seconds T] [--trace off|spans|armed] [--trace-out F]
//                [--work-dir D] [--smoke]
//
// Prints the seed, the input sizes and each archive's bytes and crc32,
// then one "name value unit n=<samples>" line per metric, and exits 1
// after printing when any correctness check failed. README.md documents
// the workloads, the metrics and the run modes.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace twpp::e2e;

namespace {

int usage(const char *Problem) {
  std::fprintf(stderr,
               "pipeline_e2e: %s\n"
               "usage: pipeline_e2e --workload compact|ingest|query|analyze "
               "--seed S [--seconds T] [--trace off|spans|armed] "
               "[--trace-out F] [--work-dir D] [--smoke]\n",
               Problem);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      Opt.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    if (Arg == "--workload") {
      Opt.Workload = Value;
    } else if (Arg == "--seed") {
      char *End = nullptr;
      Opt.Seed = std::strtoull(Value, &End, 10);
      if (*Value == '\0' || *End != '\0')
        return usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      Opt.Seconds = std::atof(Value);
      if (!(Opt.Seconds > 0))
        return usage("--seconds takes a positive number");
    } else if (Arg == "--trace") {
      std::string Mode = Value;
      if (Mode == "off")
        Opt.Trace = TraceMode::Off;
      else if (Mode == "spans")
        Opt.Trace = TraceMode::Spans;
      else if (Mode == "armed")
        Opt.Trace = TraceMode::Armed;
      else
        return usage("--trace takes off, spans or armed");
    } else if (Arg == "--trace-out") {
      Opt.TraceOut = Value;
    } else if (Arg == "--work-dir") {
      Opt.WorkDir = Value;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  if (!HaveSeed)
    return usage("--seed is required");

  Bench B(Opt);
  std::unique_ptr<Workload> W;
  if (Opt.Workload == "compact")
    W = makeCompactWorkload(B);
  else if (Opt.Workload == "ingest")
    W = makeIngestWorkload(B);
  else if (Opt.Workload == "query")
    W = makeQueryWorkload(B);
  else if (Opt.Workload == "analyze")
    W = makeAnalyzeWorkload(B);
  else
    return usage("--workload takes compact, ingest, query or analyze");
  return B.run(*W);
}
