//===- bench/pipeline_e2e/Query.cpp - The query workload ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// query: read-only. Archives of the five paper profiles are written during
// set-up; each rep then runs
//  (a) standalone extraction — a fresh ArchiveReader::open plus
//      extractFunctionPathTraces per called function, in seeded order,
//      eight passes (the paper's Table 4 query), and
//  (b) GEN-KILL queries — per archive and function: extractFunction,
//      buildAnnotatedCfg per unique trace, one factFrequency per node,
//      with a Gen/Kill/Transparent split of 10/10/80 per block.
// No compaction runs, so a write-path change must leave it unchanged.
//
//===----------------------------------------------------------------------===//

#include "WritePath.h"

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/Query.h"
#include "support/Crc32.h"
#include "support/FileIO.h"
#include "support/Random.h"
#include "trace/UncompactedFile.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include <algorithm>
#include <cstdio>

using namespace twpp;
using namespace twpp::e2e;

namespace {

constexpr unsigned ExtractPasses = 8;

struct ArchiveInput {
  std::string Name;
  std::string Short;
  std::string Path;
  uint64_t Events = 0;
  uint32_t Functions = 0;
  uint64_t OwppBytes = 0;
  uint64_t ArchiveBytes = 0;
  uint32_t ArchiveCrc = 0;
  TwppWpp Wpp; ///< In-memory twin of the archive, for the checks.
  std::vector<FunctionId> Called;
};

/// One standalone extraction query.
struct Query {
  uint32_t Archive;
  FunctionId Function;
};

/// Static effect of a block on the queried fact: 10% Gen, 10% Kill, the
/// rest Transparent, by a hash of (function, block). It is a property of
/// the program, like the traced code it stands for, so it does not change
/// with the seed: where a Gen or Kill lands in a hot loop sets how far
/// queries propagate, and seeding it would swing the query cost by 5x.
BlockEffect effectOf(FunctionId F, BlockId Block) {
  uint64_t Key[2] = {F, Block};
  uint64_t H = hashBytes(Key, sizeof(Key));
  switch (H % 10) {
  case 0:
    return BlockEffect::Gen;
  case 1:
    return BlockEffect::Kill;
  default:
    return BlockEffect::Transparent;
  }
}

/// Direct walk over the compacted block sequence: how many executions of
/// DBB \p Head have the fact holding right before them.
uint64_t oracleHolds(const AnnotatedDynamicCfg &Cfg,
                     const std::vector<BlockId> &Sequence, BlockId Head,
                     const EffectFn &Effect) {
  uint64_t Holds = 0;
  bool Holding = false;
  for (BlockId B : Sequence) {
    if (B == Head && Holding)
      ++Holds;
    const std::vector<BlockId> &Chain =
        Cfg.Nodes[Cfg.nodeIndexOf(B)].StaticBlocks;
    BlockEffect E = chainEffect(Chain, Effect);
    if (E == BlockEffect::Gen)
      Holding = true;
    else if (E == BlockEffect::Kill)
      Holding = false;
  }
  return Holds;
}

bool sameTraces(const FunctionPathTraces &A, const FunctionPathTraces &B) {
  return A.Traces == B.Traces && A.UseCounts == B.UseCounts &&
         A.CallCount == B.CallCount;
}

class QueryWorkload final : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    Inputs.clear();
    const Options &Opt = B.options();
    for (const WorkloadProfile &Profile :
         Opt.Smoke ? testProfiles() : paperProfiles()) {
      RawTrace Trace = runProfile(Profile, Opt.Seed);
      ArchiveInput In;
      In.Name = Profile.Name;
      In.Short = shortProfileName(Profile.Name);
      In.Path = B.path("query." + In.Short + ".twpp");
      In.Events = Trace.Events.size();
      In.Functions = Trace.FunctionCount;
      In.OwppBytes = owppBytes(Trace);
      In.Wpp = compactWpp(Trace);
      std::vector<uint8_t> Bytes = encodeArchive(In.Wpp);
      B.report().check(writeFileBytesAtomic(In.Path, Bytes).ok(),
                       In.Name + ": archive written");
      In.ArchiveBytes = Bytes.size();
      In.ArchiveCrc = crc32(Bytes.data(), Bytes.size());
      for (FunctionId F = 0; F != In.Wpp.Functions.size(); ++F)
        if (In.Wpp.Functions[F].CallCount > 0)
          In.Called.push_back(F);
      Inputs.push_back(std::move(In));
    }
    // Eight passes over every called function, each in its own seeded
    // order.
    Queries.clear();
    std::vector<Query> All;
    for (uint32_t A = 0; A != Inputs.size(); ++A)
      for (FunctionId F : Inputs[A].Called)
        All.push_back({A, F});
    Rng R(Opt.Seed * 0x9E3779B97F4A7C15ULL + 0x51);
    for (unsigned Pass = 0; Pass != ExtractPasses; ++Pass) {
      for (size_t I = All.size(); I > 1; --I)
        std::swap(All[I - 1], All[R.nextBelow(I)]);
      Queries.insert(Queries.end(), All.begin(), All.end());
    }
  }

  void echoInputs() override {
    for (const ArchiveInput &In : Inputs)
      B.report().echo("input " + In.Name + " events=" +
                      std::to_string(In.Events) +
                      " functions=" + std::to_string(In.Functions) +
                      " called=" + std::to_string(In.Called.size()));
  }

  void rep(RepKind Kind) override {
    extractPass(Kind);
    genKillPass(Kind);
  }

  void echoArchives() override {
    for (const ArchiveInput &In : Inputs)
      B.report().archive(In.Name, In.ArchiveBytes, In.ArchiveCrc);
  }


  void extras() override {
    // Table 4's denominator: extracting one function from the .owpp file
    // scans the whole trace. Ten functions per profile.
    for (const ArchiveInput &In : Inputs) {
      std::string Owpp = B.path("query." + In.Short + ".owpp");
      B.report().check(
          writeUncompactedTraceFile(Owpp, reconstructRawTrace(In.Wpp)),
          In.Name + ": owpp written");
      size_t Step = std::max<size_t>(1, In.Called.size() / 10);
      for (size_t I = 0; I < In.Called.size(); I += Step) {
        std::vector<std::vector<BlockId>> Traces;
        double Start = nowUs();
        bool Ok;
        {
          SpanScope S(B.spans(), "trace.uscan", In.Short);
          Ok = extractFunctionTracesFromFile(Owpp, In.Called[I], Traces);
        }
        UscanMs.push_back((nowUs() - Start) / 1000.0);
        B.report().check(Ok, In.Name + ": U-file scan");
      }
      std::remove(Owpp.c_str());
    }
  }

  void finish(const LayerProfile &Layers) override {
    Report &Out = B.report();
    // Figure 9: 4_Load is redundant on all 60 executions, found with five
    // sub-queries.
    std::vector<BlockId> Sequence;
    for (int I = 0; I < 30; ++I)
      Sequence.insert(Sequence.end(), {1, 2, 3, 4, 5});
    for (int I = 0; I < 30; ++I)
      Sequence.insert(Sequence.end(), {1, 2, 7, 4, 5});
    for (int I = 0; I < 40; ++I)
      Sequence.insert(Sequence.end(), {1, 6, 7, 5});
    FactFrequency Fig9 = factFrequency(
        buildAnnotatedCfgFromSequence(Sequence), 4, [](BlockId Block) {
          return Block == 1   ? BlockEffect::Gen
                 : Block == 6 ? BlockEffect::Kill
                              : BlockEffect::Transparent;
        });
    Out.check(Fig9.Holds == 60 && Fig9.Total == 60 &&
                  Fig9.QueriesGenerated == 5,
              "Figure 9: 60/60 with 5 sub-queries");

    uint64_t Owpp = 0, Archive = 0;
    for (const ArchiveInput &In : Inputs) {
      Owpp += In.OwppBytes;
      Archive += In.ArchiveBytes;
    }
    const Samples &Off = Timed;
    double Rate = median(Off.GenKillPerSec);
    double ExtractP50 = median(Off.ExtractUs);
    Out.metric("extract_us_p50", ExtractP50, "us", Off.ExtractUs.size());
    Out.metric("extract_us_p99", percentile(Off.ExtractUs, 99), "us",
               Off.ExtractUs.size());
    Out.metric("genkill_queries_per_s", Rate, "queries/s",
               Off.GenKillPerSec.size());
    Out.metric("genkill_us_p99", percentile(Off.GenKillUs, 99), "us",
               Off.GenKillUs.size());
    Out.metric("throughput_per_s", Rate, "1/s", Off.GenKillPerSec.size());
    Out.metric("latency_us_p50", ExtractP50, "us", Off.ExtractUs.size());
    Out.metric("compaction_factor",
               static_cast<double>(Owpp) / static_cast<double>(Archive), "x",
               Inputs.size());
    Out.metric("dataflow.subqueries_per_query",
               static_cast<double>(SubQueries) /
                   static_cast<double>(std::max<uint64_t>(GenKillCalls, 1)),
               "count", GenKillCalls);
    Out.metric("wpp.extract_bytes_per_query",
               static_cast<double>(ExtractBytes) /
                   static_cast<double>(Queries.size()),
               "bytes", Queries.size());

    if (Layers.Reps == 0)
      return;
    const Samples &T = Traced;
    Out.metric("wpp.archive_open_us_p50", median(T.OpenUs), "us",
               T.OpenUs.size());
    Out.metric("wpp.archive_open_us_p99", percentile(T.OpenUs, 99), "us",
               T.OpenUs.size());
    double DecodeP50 = median(T.DecodeUs);
    Out.metric("wpp.extract_decode_us_p50", DecodeP50, "us",
               T.DecodeUs.size());
    double UscanP50 = median(UscanMs);
    Out.metric("trace.uscan_ms_p50", UscanP50, "ms", UscanMs.size());
    Out.metric("wpp.extract_speedup_vs_uscan",
               UscanP50 * 1000.0 / median(T.ExtractUs), "x",
               T.ExtractUs.size());
    Out.metric("dataflow.annotate_us_p50", median(T.AnnotateUs), "us",
               T.AnnotateUs.size());
    Out.metric("dataflow.genkill_us_p50", median(T.GenKillUs), "us",
               T.GenKillUs.size());
  }

private:
  struct Samples {
    std::vector<double> ExtractUs; ///< open + extract, per query.
    std::vector<double> OpenUs;
    std::vector<double> DecodeUs;
    std::vector<double> AnnotateUs;
    std::vector<double> GenKillUs;
    std::vector<double> GenKillPerSec; ///< One per rep.
  };


  void extractPass(RepKind Kind) {
    Report &Out = B.report();
    SpanRecorder &Rec = B.spans();
    Samples *S = samplesFor(Kind, Timed, Traced);
    uint64_t Failed = 0;
    for (const Query &Q : Queries) {
      const ArchiveInput &In = Inputs[Q.Archive];
      FunctionPathTraces Traces;
      double Start = nowUs();
      ArchiveReader Reader;
      bool Ok;
      {
        SpanScope Span(Rec, "wpp.archive_open", In.Short);
        Ok = Reader.open(In.Path);
      }
      double Opened = nowUs();
      {
        SpanScope Span(Rec, "wpp.extract", In.Short);
        Ok = Ok && Reader.extractFunctionPathTraces(Q.Function, Traces);
      }
      double End = nowUs();
      if (S) {
        S->ExtractUs.push_back(End - Start);
        S->OpenUs.push_back(Opened - Start);
        S->DecodeUs.push_back(End - Opened);
      }
      if (!Ok)
        ++Failed;
      if (Kind == RepKind::Warmup) {
        ExtractBytes += Reader.blockLength(Q.Function);
        Out.check(Ok && sameTraces(Traces, expandFunctionTraces(
                                               In.Wpp.Functions[Q.Function])),
                  In.Name + ": extraction of function " +
                      std::to_string(Q.Function) +
                      " equals the in-memory table");
      }
    }
    Out.check(Failed == 0, "every extraction succeeded");
  }

  void genKillPass(RepKind Kind) {
    Report &Out = B.report();
    SpanRecorder &Rec = B.spans();
    Samples *S = samplesFor(Kind, Timed, Traced);
    bool Warmup = Kind == RepKind::Warmup;
    uint64_t Seed = B.options().Seed;
    uint64_t Calls = 0, Holds = 0, Sub = 0, Bad = 0;
    double Start = nowUs();
    for (const ArchiveInput &In : Inputs) {
      ArchiveReader Reader;
      {
        SpanScope Span(Rec, "wpp.archive_open", In.Short);
        Out.check(Reader.open(In.Path), In.Name + ": open");
      }
      for (FunctionId F : In.Called) {
        TwppFunctionTable Table;
        bool Ok;
        {
          SpanScope Span(Rec, "wpp.extract_function", In.Short);
          Ok = Reader.extractFunction(F, Table);
        }
        if (!Out.check(Ok, In.Name + ": extractFunction " + std::to_string(F)))
          continue;
        EffectFn Effect = [F](BlockId Block) { return effectOf(F, Block); };
        // One span per function and layer: the calls are microseconds
        // each, too short to wrap one by one.
        std::vector<AnnotatedDynamicCfg> Cfgs(Table.Traces.size());
        {
          SpanScope Span(Rec, "dataflow.annotate", In.Short);
          Span.setCalls(Cfgs.size());
          for (size_t I = 0; I != Cfgs.size(); ++I) {
            auto [StringIndex, DictIndex] = Table.Traces[I];
            double CallStart = nowUs();
            Cfgs[I] = buildAnnotatedCfg(Table.TraceStrings[StringIndex],
                                        Table.Dictionaries[DictIndex]);
            if (S)
              S->AnnotateUs.push_back(nowUs() - CallStart);
          }
        }
        SpanScope Span(Rec, "dataflow.genkill", In.Short);
        uint64_t FunctionCalls = 0;
        for (size_t I = 0; I != Cfgs.size(); ++I) {
          const AnnotatedDynamicCfg &Cfg = Cfgs[I];
          std::vector<BlockId> Sequence;
          if (Warmup)
            blockSequenceFromTwpp(
                Table.TraceStrings[Table.Traces[I].first], Sequence);
          for (const AnnotatedNode &Node : Cfg.Nodes) {
            double CallStart = nowUs();
            FactFrequency Freq = factFrequency(Cfg, Node.Head, Effect);
            if (S)
              S->GenKillUs.push_back(nowUs() - CallStart);
            ++FunctionCalls;
            Holds += Freq.Holds;
            Sub += Freq.QueriesGenerated;
            if (Freq.Holds > Freq.Total || Freq.Total != Node.Times.count())
              ++Bad;
            uint64_t Key[4] = {Seed, F, I, Node.Head};
            if (Warmup && hashBytes(Key, sizeof(Key)) % 64 == 0)
              Out.check(Freq.Holds ==
                            oracleHolds(Cfg, Sequence, Node.Head, Effect),
                        In.Name + ": factFrequency of function " +
                            std::to_string(F) + " block " +
                            std::to_string(Node.Head) +
                            " matches a direct trace walk");
          }
        }
        Span.setCalls(FunctionCalls);
        Calls += FunctionCalls;
      }
    }
    double Seconds = (nowUs() - Start) / 1e6;
    Out.check(Bad == 0, "Holds <= Total == Times.count() on every query");
    if (Warmup) {
      GenKillCalls = Calls;
      WarmupHolds = Holds;
      SubQueries = Sub;
    } else {
      Out.check(Calls == GenKillCalls && Holds == WarmupHolds &&
                    Sub == SubQueries,
                "GEN-KILL answers identical across reps");
    }
    if (S)
      S->GenKillPerSec.push_back(static_cast<double>(Calls) / Seconds);
  }

  std::vector<ArchiveInput> Inputs;
  std::vector<Query> Queries;
  Samples Timed, Traced;
  std::vector<double> UscanMs;
  uint64_t ExtractBytes = 0;
  uint64_t GenKillCalls = 0, WarmupHolds = 0, SubQueries = 0;
};

} // namespace

std::unique_ptr<Workload> e2e::makeQueryWorkload(Bench &B) {
  return std::make_unique<QueryWorkload>(B);
}
