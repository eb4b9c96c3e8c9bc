//===- tools/SelfprofVerb.cpp - Self-profile archive reporter -------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Reports on a self-profile archive (obs/SelfProfile.h): the pipeline's
// own execution, compacted as TWPP. Functions are span paths, block 1 is
// the call marker, higher blocks are log2-bucketed exclusive-time gaps —
// the sidecar (<archive>.meta) carries both maps, so every figure here is
// computed purely from the archive's path traces and timestamps.
//
//   twpp selfprof run.twppa
//   twpp selfprof --top=3 --format=collapsed run.twppa > profile.folded
//
// The collapsed format is flamegraph folded stacks ("a;b;c <exclusive_us>").
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "obs/SelfProfile.h"
#include "wpp/Archive.h"
#include "wpp/HotPaths.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using namespace twpp;
using namespace twpp::tool;

namespace {

struct SelfprofOptions {
  size_t Top = 5;
} Opts;

/// One span path's aggregate, from its function block alone.
struct FunctionReport {
  FunctionId Function = 0;
  std::string Path;
  uint64_t Calls = 0;
  uint64_t ExclusiveNs = 0;
  uint64_t InclusiveNs = 0; ///< Path-prefix sum over every function.
  std::vector<HotPath> Hot; ///< Ranked by use count (wpp/HotPaths).
};

/// One ranked acyclic path with its reconstructed duration.
struct RankedPath {
  const FunctionReport *Fn = nullptr;
  const HotPath *Path = nullptr;
  uint64_t PathNs = 0;
};

struct StageReport {
  std::string Name; ///< First path component ("compact", "archive_encode").
  uint64_t ExclusiveNs = 0;
  uint64_t Calls = 0;
  std::vector<RankedPath> Hot; ///< Use-count ranked across the stage.
};

std::string stageOf(const std::string &Path) {
  size_t Slash = Path.find('/');
  return Slash == std::string::npos ? Path : Path.substr(0, Slash);
}

std::string formatNs(uint64_t Ns) {
  char Buf[32];
  if (Ns >= 1000000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", double(Ns) / 1e9);
  else if (Ns >= 1000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", double(Ns) / 1e6);
  else if (Ns >= 1000ull)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", double(Ns) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%lluns", (unsigned long long)Ns);
  return Buf;
}

/// The time one path spent: the durations of its gap blocks, summed.
uint64_t pathNs(const PathTrace &Blocks,
                const std::unordered_map<BlockId, uint64_t> &GapNs) {
  uint64_t Ns = 0;
  for (BlockId B : Blocks)
    if (auto It = GapNs.find(B); It != GapNs.end())
      Ns += It->second;
  return Ns;
}

/// "[@ 2us 512ns ...]" — the block pattern of one acyclic path, call
/// markers as '@', gaps by their representative duration.
std::string describeBlocks(const PathTrace &Blocks,
                           const std::unordered_map<BlockId, uint64_t> &GapNs,
                           size_t MaxBlocks = 8) {
  std::string Out = "[";
  for (size_t I = 0; I < Blocks.size(); ++I) {
    if (I == MaxBlocks) {
      Out += " ...";
      break;
    }
    if (I)
      Out += " ";
    if (Blocks[I] == obs::selfprof::CallMarkerBlock) {
      Out += "@";
    } else if (auto It = GapNs.find(Blocks[I]); It != GapNs.end()) {
      Out += formatNs(It->second);
    } else {
      Out += "b";
      Out += std::to_string(Blocks[I]);
    }
  }
  Out += "]";
  return Out;
}

void renderText(const std::string &ArchivePath, const obs::SelfProfileMeta &M,
                const std::vector<FunctionReport> &Functions,
                const std::vector<StageReport> &Stages,
                const std::unordered_map<BlockId, uint64_t> &GapNs,
                size_t Top, std::string &Out) {
  appendf(Out, "self-profile: %s\n", ArchivePath.c_str());
  appendf(Out,
          "  functions %llu, spans %llu, events %llu, records dropped %llu\n",
          (unsigned long long)M.Stats.Functions,
          (unsigned long long)M.Stats.Spans, (unsigned long long)M.Stats.Events,
          (unsigned long long)M.Stats.RecordsDropped);
  appendf(Out, "  truncated %llu, unclosed %llu\n",
          (unsigned long long)M.Stats.TruncatedSpans,
          (unsigned long long)M.Stats.UnclosedSpans);
  if (M.Stats.TraceJsonBytes != 0 && M.Stats.ArchiveBytes != 0) {
    appendf(Out,
            "  archive %llu bytes vs chrome-trace json %llu bytes "
            "(%.1fx smaller)\n",
            (unsigned long long)M.Stats.ArchiveBytes,
            (unsigned long long)M.Stats.TraceJsonBytes,
            double(M.Stats.TraceJsonBytes) / double(M.Stats.ArchiveBytes));
  }

  Out += "stages (exclusive time):\n";
  for (const StageReport &S : Stages) {
    appendf(Out, "  %-24s %10s  (calls %llu)\n", S.Name.c_str(),
            formatNs(S.ExclusiveNs).c_str(), (unsigned long long)S.Calls);
  }

  Out += "hottest functions (by exclusive time):\n";
  appendf(Out, "  %-40s %8s %10s %10s\n", "span path", "calls", "excl", "incl");
  std::vector<const FunctionReport *> ByExclusive;
  for (const FunctionReport &Fn : Functions)
    if (Fn.Calls != 0)
      ByExclusive.push_back(&Fn);
  std::stable_sort(ByExclusive.begin(), ByExclusive.end(),
                   [](const FunctionReport *A, const FunctionReport *B) {
                     return A->ExclusiveNs > B->ExclusiveNs;
                   });
  for (size_t I = 0; I < ByExclusive.size() && I < Top; ++I) {
    const FunctionReport &Fn = *ByExclusive[I];
    appendf(Out, "  %-40s %8llu %10s %10s\n", Fn.Path.c_str(),
            (unsigned long long)Fn.Calls, formatNs(Fn.ExclusiveNs).c_str(),
            formatNs(Fn.InclusiveNs).c_str());
  }

  Out += "hottest acyclic paths per stage:\n";
  for (const StageReport &S : Stages) {
    appendf(Out, "  stage %s:\n", S.Name.c_str());
    for (size_t I = 0; I < S.Hot.size() && I < Top; ++I) {
      const RankedPath &R = S.Hot[I];
      appendf(Out, "    %2zu. %-36s x%-8llu %10s  %s\n", I + 1,
              R.Fn->Path.c_str(), (unsigned long long)R.Path->UseCount,
              formatNs(R.PathNs).c_str(),
              describeBlocks(R.Path->Blocks, GapNs).c_str());
    }
  }
}

void renderCollapsed(const std::vector<FunctionReport> &Functions,
                     std::string &Out) {
  // Folded-stack format: "frame;frame;frame <value>", one line per
  // stack, value = exclusive microseconds. Function ids are full span
  // paths, so '/' -> ';' is the entire conversion.
  for (const FunctionReport &Fn : Functions) {
    if (Fn.Calls == 0)
      continue;
    std::string Frames = Fn.Path;
    std::replace(Frames.begin(), Frames.end(), '/', ';');
    Out += Frames + " " + std::to_string(Fn.ExclusiveNs / 1000) + "\n";
  }
}

void reportJson(const std::string &ArchivePath, const obs::SelfProfileMeta &M,
                const std::vector<FunctionReport> &Functions,
                const std::vector<StageReport> &Stages, size_t Top,
                obs::JsonWriter &W) {
  W.field("archive", ArchivePath)
      .beginObject("stats")
      .field("functions", M.Stats.Functions)
      .field("spans", M.Stats.Spans)
      .field("events", M.Stats.Events)
      .field("records_dropped", M.Stats.RecordsDropped)
      .field("truncated_spans", M.Stats.TruncatedSpans)
      .field("unclosed_spans", M.Stats.UnclosedSpans)
      .field("archive_bytes", M.Stats.ArchiveBytes)
      .field("trace_json_bytes", M.Stats.TraceJsonBytes)
      .end()
      .beginArray("stages");
  for (const StageReport &S : Stages) {
    W.beginObject()
        .field("stage", S.Name)
        .field("exclusive_ns", S.ExclusiveNs)
        .field("calls", S.Calls)
        .beginArray("hot_paths");
    for (size_t P = 0; P < S.Hot.size() && P < Top; ++P) {
      const RankedPath &R = S.Hot[P];
      W.beginObject()
          .field("path", R.Fn->Path)
          .field("use_count", R.Path->UseCount)
          .field("path_ns", R.PathNs)
          .beginArray("blocks");
      for (BlockId B : R.Path->Blocks)
        W.value(B);
      W.end().end();
    }
    W.end().end();
  }
  W.end().beginArray("functions");
  for (const FunctionReport &Fn : Functions) {
    if (Fn.Calls == 0)
      continue;
    W.beginObject()
        .field("function", Fn.Function)
        .field("path", Fn.Path)
        .field("calls", Fn.Calls)
        .field("exclusive_ns", Fn.ExclusiveNs)
        .field("inclusive_ns", Fn.InclusiveNs)
        .end();
  }
  W.end();
}

} // namespace

cli::FlagTable tool::selfprofFlags() {
  return {
      cli::unsignedFlag("top", "N", "entries per listing (default 5)",
                        Opts.Top, 1),
  };
}

int tool::runSelfprof(const Invocation &Inv) {
  const std::string &ArchivePath = Inv.Args[0];
  std::string MetaPath = ArchivePath + ".meta";

  obs::SelfProfileMeta Meta;
  if (!obs::readSelfProfileMetaFile(MetaPath, Meta)) {
    std::fprintf(stderr, "twpp selfprof: cannot read sidecar %s\n",
                 MetaPath.c_str());
    return cli::ExitUsage;
  }

  ArchiveReader Reader;
  if (!openArchive(ArchivePath, Reader))
    return cli::ExitUsage;
  if (Reader.functionCount() != Meta.FunctionPaths.size()) {
    std::fprintf(stderr,
                 "twpp selfprof: sidecar lists %zu functions but the "
                 "archive holds %u\n",
                 Meta.FunctionPaths.size(), Reader.functionCount());
    return cli::ExitFindings;
  }

  std::unordered_map<BlockId, uint64_t> GapNs(Meta.GapBlocks.begin(),
                                               Meta.GapBlocks.end());

  // Per function (span path): expand its unique path traces, turn gap
  // blocks back into nanoseconds, rank its acyclic paths by use count.
  std::vector<FunctionReport> Functions(Reader.functionCount());
  for (FunctionId F = 0; F < Reader.functionCount(); ++F) {
    FunctionReport &Fn = Functions[F];
    Fn.Function = F;
    Fn.Path = Meta.FunctionPaths[F];
    if (Reader.callCount(F) == 0)
      continue;
    FunctionPathTraces Expanded;
    if (!Reader.extractFunctionPathTraces(F, Expanded)) {
      std::fprintf(stderr, "twpp selfprof: cannot extract function %u: %s\n",
                   F, Reader.lastError().Message.c_str());
      return cli::ExitUsage;
    }
    Fn.Calls = Expanded.CallCount;
    for (size_t T = 0; T < Expanded.Traces.size(); ++T) {
      uint64_t Uses =
          T < Expanded.UseCounts.size() ? Expanded.UseCounts[T] : 0;
      Fn.ExclusiveNs += pathNs(Expanded.Traces[T], GapNs) * Uses;
    }
    Fn.Hot = hotPathsOf(std::move(Expanded), Opts.Top);
  }

  // Inclusive time falls out of the path-as-function encoding: a span's
  // subtree is exactly the functions whose path it prefixes.
  for (FunctionReport &Fn : Functions) {
    std::string Prefix = Fn.Path + "/";
    for (const FunctionReport &Other : Functions)
      if (Other.Path == Fn.Path ||
          Other.Path.compare(0, Prefix.size(), Prefix) == 0)
        Fn.InclusiveNs += Other.ExclusiveNs;
  }

  // Per pipeline stage (first path component): exclusive totals and the
  // stage-wide use-count ranking of acyclic paths.
  std::map<std::string, StageReport> StageMap;
  for (const FunctionReport &Fn : Functions) {
    if (Fn.Calls == 0)
      continue;
    StageReport &S = StageMap[stageOf(Fn.Path)];
    S.Name = stageOf(Fn.Path);
    S.ExclusiveNs += Fn.ExclusiveNs;
    S.Calls += Fn.Calls;
    for (const HotPath &H : Fn.Hot)
      S.Hot.push_back(RankedPath{&Fn, &H, pathNs(H.Blocks, GapNs)});
  }
  std::vector<StageReport> Stages;
  for (auto &[Name, S] : StageMap) {
    std::stable_sort(S.Hot.begin(), S.Hot.end(),
                     [](const RankedPath &A, const RankedPath &B) {
                       return A.Path->UseCount > B.Path->UseCount;
                     });
    Stages.push_back(std::move(S));
  }
  std::stable_sort(Stages.begin(), Stages.end(),
                   [](const StageReport &A, const StageReport &B) {
                     return A.ExclusiveNs > B.ExclusiveNs;
                   });

  if (Inv.Json) {
    reportJson(ArchivePath, Meta, Functions, Stages, Opts.Top, Inv.Json->Body);
    return cli::ExitSuccess;
  }
  std::string Out;
  if (Inv.Format == "collapsed")
    renderCollapsed(Functions, Out);
  else
    renderText(ArchivePath, Meta, Functions, Stages, GapNs, Opts.Top, Out);
  std::fputs(Out.c_str(), stdout);
  return cli::ExitSuccess;
}
