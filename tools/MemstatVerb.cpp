//===- tools/MemstatVerb.cpp - Archive memory statistics ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Reports where an archive's bytes live, per function and per section:
// compressed (on-disk block) bytes vs decoded (in-memory obs::deepSize)
// bytes vs the paper-model wpp/Sizes serialized estimate, with the top-N
// offenders by decoded footprint. Every run also reconciles the
// allocation tracker against the deep-size audit — the same invariant the
// twpp-mem-reconcile verifier check enforces — so a drifting decoder
// fails the tool, not just the verifier.
//
//   twpp memstat out.twpp
//   twpp memstat --top=5 --format=json --out memstat.json out.twpp
//
// The JSON report has schema twpp-memstat-v1. The reconcile tolerance is
// 1% + 1 KiB.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "obs/Json.h"
#include "obs/Memory.h"
#include "verify/MemoryChecks.h"
#include "wpp/Archive.h"
#include "wpp/DeepSize.h"
#include "wpp/Sizes.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::tool;

namespace {

struct MemstatOptions {
  size_t Top = 10;
  std::string Format = "text";
  std::string OutPath;
} Opts;

struct FunctionStat {
  uint32_t Function = 0;
  uint64_t Calls = 0;
  uint64_t CompressedBytes = 0;
  uint64_t DecodedBytes = 0;
  uint64_t ModelBytes = 0;
};

struct ArchiveStat {
  std::string Path;
  uint64_t FileBytes = 0;
  uint64_t HeaderIndexBytes = 0;
  uint64_t DcgCompressedBytes = 0;
  uint64_t DcgDecodedBytes = 0;
  std::vector<FunctionStat> Functions; // sorted by DecodedBytes descending
  verify::MemoryAudit Audit;
  bool Reconciled = true;
};

uint64_t modelBytes(const TwppFunctionTable &Table) {
  uint64_t Bytes = 0;
  for (const TwppTrace &Trace : Table.TraceStrings)
    Bytes += twppTraceBytes(Trace);
  for (const DbbDictionary &Dict : Table.Dictionaries)
    Bytes += dictionaryBytes(Dict);
  return Bytes;
}

bool collect(const std::string &Path, ArchiveStat &Stat) {
  Stat.Path = Path;
  TwppWpp Wpp;
  if (!verify::auditArchiveMemory(Path, Stat.Audit, &Wpp))
    return false;

  ArchiveReader Reader;
  if (!Reader.open(Path))
    return false;

  std::error_code Ec;
  Stat.FileBytes = std::filesystem::file_size(Path, Ec);
  if (Ec)
    Stat.FileBytes = 0;
  // Archive layout (wpp/Archive.h): 12-byte prefix + 16 DCG fields +
  // 24-byte index rows.
  Stat.HeaderIndexBytes = 12 + 16 + 24ull * Reader.functionCount();
  Stat.DcgCompressedBytes = Reader.dcgLength();
  Stat.DcgDecodedBytes = obs::deepSize(Wpp.Dcg);

  Stat.Functions.resize(Wpp.Functions.size());
  for (uint32_t F = 0; F < Wpp.Functions.size(); ++F) {
    FunctionStat &Fn = Stat.Functions[F];
    Fn.Function = F;
    Fn.Calls = Reader.callCount(F);
    Fn.CompressedBytes = Reader.blockLength(F);
    Fn.DecodedBytes = obs::deepSize(Wpp.Functions[F]);
    Fn.ModelBytes = modelBytes(Wpp.Functions[F]);
  }
  std::stable_sort(Stat.Functions.begin(), Stat.Functions.end(),
                   [](const FunctionStat &A, const FunctionStat &B) {
                     return A.DecodedBytes > B.DecodedBytes;
                   });

  uint64_t Delta = Stat.Audit.TrackedBytes > Stat.Audit.DeepBytes
                       ? Stat.Audit.TrackedBytes - Stat.Audit.DeepBytes
                       : Stat.Audit.DeepBytes - Stat.Audit.TrackedBytes;
  Stat.Reconciled =
      Delta <= verify::memReconcileToleranceBytes(Stat.Audit.DeepBytes);
  return true;
}

void renderText(const std::vector<ArchiveStat> &Stats, size_t Top,
                std::string &Out) {
  for (const ArchiveStat &Stat : Stats) {
    appendf(Out, "%s\n", Stat.Path.c_str());
    appendf(Out, "  file %llu bytes (header+index %llu, dcg %llu)\n",
            (unsigned long long)Stat.FileBytes,
            (unsigned long long)Stat.HeaderIndexBytes,
            (unsigned long long)Stat.DcgCompressedBytes);
    uint64_t Compressed = 0, Decoded = 0, Model = 0;
    for (const FunctionStat &Fn : Stat.Functions) {
      Compressed += Fn.CompressedBytes;
      Decoded += Fn.DecodedBytes;
      Model += Fn.ModelBytes;
    }
    appendf(Out,
            "  functions: compressed %llu, decoded %llu, paper-model %llu "
            "bytes\n",
            (unsigned long long)Compressed, (unsigned long long)Decoded,
            (unsigned long long)Model);
    appendf(Out, "  dcg: compressed %llu, decoded %llu bytes\n",
            (unsigned long long)Stat.DcgCompressedBytes,
            (unsigned long long)Stat.DcgDecodedBytes);
    appendf(Out, "  audit: tracked %llu vs deep-size %llu bytes (%s)\n",
            (unsigned long long)Stat.Audit.TrackedBytes,
            (unsigned long long)Stat.Audit.DeepBytes,
            Stat.Reconciled ? "reconciled" : "RECONCILE FAILED");
    Out += "  top functions by decoded bytes:\n";
    appendf(Out, "    %-10s %-12s %-12s %-12s %s\n", "function", "compressed",
            "decoded", "model", "calls");
    for (size_t I = 0; I < Stat.Functions.size() && I < Top; ++I) {
      const FunctionStat &Fn = Stat.Functions[I];
      appendf(Out, "    %-10u %-12llu %-12llu %-12llu %llu\n", Fn.Function,
              (unsigned long long)Fn.CompressedBytes,
              (unsigned long long)Fn.DecodedBytes,
              (unsigned long long)Fn.ModelBytes, (unsigned long long)Fn.Calls);
    }
  }
}

void renderJson(const std::vector<ArchiveStat> &Stats, size_t Top,
                std::string &Out) {
  auto U64 = [](uint64_t Value) { return std::to_string(Value); };
  Out += "{\"schema\": \"twpp-memstat-v1\", \"archives\": [";
  for (size_t A = 0; A < Stats.size(); ++A) {
    const ArchiveStat &Stat = Stats[A];
    if (A)
      Out += ", ";
    Out += "{\"path\": " + obs::jsonStringLiteral(Stat.Path);
    Out += ", \"file_bytes\": " + U64(Stat.FileBytes);
    Out += ", \"header_index_bytes\": " + U64(Stat.HeaderIndexBytes);
    Out += ", \"dcg\": {\"compressed_bytes\": " +
           U64(Stat.DcgCompressedBytes) +
           ", \"decoded_bytes\": " + U64(Stat.DcgDecodedBytes) + "}";
    Out += ", \"audit\": {\"tracked_bytes\": " +
           U64(Stat.Audit.TrackedBytes) +
           ", \"deep_bytes\": " + U64(Stat.Audit.DeepBytes) +
           ", \"model_bytes\": " + U64(Stat.Audit.ModelBytes) +
           ", \"reconciled\": " + (Stat.Reconciled ? "true" : "false") + "}";
    Out += ", \"functions\": [";
    for (size_t I = 0; I < Stat.Functions.size() && I < Top; ++I) {
      const FunctionStat &Fn = Stat.Functions[I];
      if (I)
        Out += ", ";
      Out += "{\"function\": " + U64(Fn.Function) +
             ", \"compressed_bytes\": " + U64(Fn.CompressedBytes) +
             ", \"decoded_bytes\": " + U64(Fn.DecodedBytes) +
             ", \"model_bytes\": " + U64(Fn.ModelBytes) +
             ", \"calls\": " + U64(Fn.Calls) + "}";
    }
    Out += "]}";
  }
  Out += "]}\n";
}

} // namespace

cli::FlagTable tool::memstatFlags() {
  return {
      cli::unsignedFlag("top", "N", "functions to list (default 10)",
                        Opts.Top, 1),
      cli::choiceFlag("format", "report", Opts.Format, {"text", "json"}),
      cli::stringFlag("out", "FILE", "write the report to FILE", Opts.OutPath),
  };
}

int tool::runMemstat(const Invocation &Inv) {
  const std::vector<std::string> &Archives = Inv.Args;
  std::vector<ArchiveStat> Stats;
  for (const std::string &Path : Archives) {
    ArchiveStat Stat;
    if (!collect(Path, Stat)) {
      std::fprintf(stderr, "twpp memstat: cannot read %s\n", Path.c_str());
      return cli::ExitUsage;
    }
    Stats.push_back(std::move(Stat));
  }

  std::string Out;
  if (Opts.Format == "json")
    renderJson(Stats, Opts.Top, Out);
  else
    renderText(Stats, Opts.Top, Out);

  if (!writeReport(Out, Opts.OutPath))
    return cli::ExitUsage;

  for (const ArchiveStat &Stat : Stats)
    if (!Stat.Reconciled) {
      std::fprintf(stderr,
                   "twpp memstat: %s: tracker vs deep-size audit beyond "
                   "tolerance\n",
                   Stat.Path.c_str());
      return cli::ExitFindings;
    }
  return cli::ExitSuccess;
}
