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
//   twpp memstat --top=5 --format=json out.twpp > memstat.json
//
// The reconcile tolerance is 1% + 1 KiB.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

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

/// Fills \p Stat; when \p Path cannot be decoded, \p Why says why.
bool collect(const std::string &Path, ArchiveStat &Stat,
             verify::Diagnostic &Why) {
  Stat.Path = Path;
  ArchiveReader Reader;
  if (!Reader.open(Path)) {
    Why = Reader.lastError();
    return false;
  }
  TwppWpp Wpp;
  if (!verify::auditArchiveMemory(Reader, Stat.Audit, &Wpp, &Why))
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

std::string renderText(const std::vector<ArchiveStat> &Stats, size_t Top) {
  std::string Out;
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
  return Out;
}

void reportJson(const std::vector<ArchiveStat> &Stats, size_t Top,
                obs::JsonWriter &W) {
  W.beginArray("archives");
  for (const ArchiveStat &Stat : Stats) {
    W.beginObject()
        .field("path", Stat.Path)
        .field("file_bytes", Stat.FileBytes)
        .field("header_index_bytes", Stat.HeaderIndexBytes)
        .beginObject("dcg")
        .field("compressed_bytes", Stat.DcgCompressedBytes)
        .field("decoded_bytes", Stat.DcgDecodedBytes)
        .end()
        .beginObject("audit")
        .field("tracked_bytes", Stat.Audit.TrackedBytes)
        .field("deep_bytes", Stat.Audit.DeepBytes)
        .field("model_bytes", Stat.Audit.ModelBytes)
        .field("reconciled", Stat.Reconciled)
        .end()
        .beginArray("functions");
    for (size_t I = 0; I < Stat.Functions.size() && I < Top; ++I) {
      const FunctionStat &Fn = Stat.Functions[I];
      W.beginObject()
          .field("function", Fn.Function)
          .field("compressed_bytes", Fn.CompressedBytes)
          .field("decoded_bytes", Fn.DecodedBytes)
          .field("model_bytes", Fn.ModelBytes)
          .field("calls", Fn.Calls)
          .end();
    }
    W.end().end();
  }
  W.end();
}

} // namespace

cli::FlagTable tool::memstatFlags() {
  return {
      cli::unsignedFlag("top", "N", "functions to list (default 10)",
                        Opts.Top, 1),
  };
}

int tool::runMemstat(const Invocation &Inv) {
  const std::vector<std::string> &Archives = Inv.Args;
  std::vector<ArchiveStat> Stats;
  for (const std::string &Path : Archives) {
    ArchiveStat Stat;
    verify::Diagnostic Why;
    if (!collect(Path, Stat, Why))
      return Inv.unusable(Path, {Why});
    Stats.push_back(std::move(Stat));
  }

  if (Inv.Json)
    reportJson(Stats, Opts.Top, Inv.Json->Body);
  else
    std::fputs(renderText(Stats, Opts.Top).c_str(), stdout);

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
