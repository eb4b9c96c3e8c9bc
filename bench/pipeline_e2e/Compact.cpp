//===- bench/pipeline_e2e/Compact.cpp - The compact workload --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// compact: the five paper profiles, pre-encoded as twpp-wire-v1 frames
// during set-up, each pushed through the serial write chain (WritePath.h)
// once per rep. Nothing else runs, so the write-path layers do nearly all
// the work.
//
//===----------------------------------------------------------------------===//

#include "WritePath.h"

#include "support/LZW.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include <cmath>

using namespace twpp;
using namespace twpp::e2e;

namespace {

struct ProfileInput {
  std::string Name;  ///< "099.go"
  std::string Short; ///< "go"
  uint32_t Functions = 0;
  uint64_t Events = 0;
  uint64_t EventsHash = 0;
  uint64_t OwppBytes = 0;
  std::vector<uint8_t> Wire;
  // Filled by the warm-up rep.
  uint64_t FrameBytes = 0;
  uint64_t ArchiveBytes = 0;
  uint32_t ArchiveCrc = 0;
  ChainProbe Probe;
  std::vector<double> ChainMs; ///< One per timed rep.
  double LzwMs = 0;            ///< Spans-only extra, median of three.
};

const char *const ChainLayers[] = {"ingest.wire_decode", "wpp.partition",
                                   "wpp.dbb",            "wpp.twpp",
                                   "wpp.archive_encode", "support.archive_write"};

/// Name of a chain layer's share metric ("wpp.dbb" -> "wpp.dbb_share").
std::string shareName(const std::string &Layer) {
  if (Layer == "ingest.wire_decode")
    return "ingest.wire_share";
  return Layer + "_share";
}

class CompactWorkload final : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    Inputs.clear();
    const Options &Opt = B.options();
    for (const WorkloadProfile &Profile : Opt.Smoke ? testProfiles() : paperProfiles()) {
      RawTrace Trace = runProfile(Profile, Opt.Seed);
      ProfileInput In;
      In.Name = Profile.Name;
      In.Short = shortProfileName(Profile.Name);
      In.Functions = Trace.FunctionCount;
      In.Events = Trace.Events.size();
      In.EventsHash = hashEvents(Trace);
      In.OwppBytes = owppBytes(Trace);
      In.Wire = encodeWireStream(Trace);
      Inputs.push_back(std::move(In));
    }
  }

  void echoInputs() override {
    for (const ProfileInput &In : Inputs)
      B.report().echo("input " + In.Name + " events=" +
                      std::to_string(In.Events) +
                      " functions=" + std::to_string(In.Functions) +
                      " wire_bytes=" + std::to_string(In.Wire.size()));
  }

  void rep(RepKind Kind) override {
    Report &Out = B.report();
    double Frames = 0, WallUs = 0;
    for (ProfileInput &In : Inputs) {
      bool Warmup = Kind == RepKind::Warmup;
      ChainResult R = runWriteChain(B.spans(), In.Short, In.Wire,
                                    archivePath(In),
                                    Warmup ? &In.Probe : nullptr);
      Out.check(R.Ok, In.Name + ": write chain");
      if (Warmup) {
        In.FrameBytes = R.FrameBytes;
        In.ArchiveBytes = R.ArchiveBytes;
        In.ArchiveCrc = R.ArchiveCrc;
        Out.check(In.Probe.DecodedHash == In.EventsHash,
                  In.Name + ": decoded wire events equal the generated trace");
      } else {
        Out.check(R.ArchiveCrc == In.ArchiveCrc,
                  In.Name + ": archive crc32 identical across reps");
      }
      Frames += static_cast<double>(R.Frames);
      WallUs += R.WallMs * 1000.0;
      if (Kind == RepKind::Timed)
        In.ChainMs.push_back(R.WallMs);
    }
    if (Kind == RepKind::Timed)
      FrameUs.push_back(WallUs / Frames);
  }

  void echoArchives() override {
    for (const ProfileInput &In : Inputs)
      B.report().archive(In.Name, In.ArchiveBytes, In.ArchiveCrc);
  }


  void extras() override {
    // LZW on its own (it runs inside encodeArchive, which the chain only
    // sees whole), and the per-function stages at jobs 1 vs jobs 4 with
    // four pool workers in this process.
    SpanRecorder &Rec = B.spans();
    ParallelConfig Jobs4 = ParallelConfig::withJobs(4);
    double Jobs1Ms = 0, Jobs4Ms = 0;
    for (ProfileInput &In : Inputs) {
      PartitionedWpp Partitioned;
      {
        SpanScope S(Rec, "bench.extra_prep", In.Short);
        RawTrace Trace;
        uint64_t Frames = 0, FrameBytes = 0;
        decodeWireStream(In.Wire, Trace, Frames, FrameBytes);
        Partitioned = partitionWpp(Trace);
      }
      TwppWpp Twpp;
      double Start = nowUs();
      {
        SpanScope S(Rec, "support.pool_jobs1", In.Short);
        Twpp = convertToTwpp(applyDbbCompaction(Partitioned));
        encodeArchive(Twpp);
      }
      Jobs1Ms += (nowUs() - Start) / 1000.0;
      Start = nowUs();
      {
        SpanScope S(Rec, "support.pool_jobs4", In.Short);
        encodeArchive(convertToTwpp(applyDbbCompaction(Partitioned, Jobs4),
                                    Jobs4),
                      Jobs4);
      }
      Jobs4Ms += (nowUs() - Start) / 1000.0;
      std::vector<uint8_t> Dcg = encodeDcg(Twpp.Dcg);
      std::vector<double> LzwMs;
      for (int I = 0; I != 3; ++I) {
        Start = nowUs();
        {
          SpanScope S(Rec, "support.lzw", In.Short);
          lzwCompress(Dcg);
        }
        LzwMs.push_back((nowUs() - Start) / 1000.0);
      }
      In.LzwMs = median(LzwMs);
    }
    PoolSpeedup = Jobs4Ms > 0 ? Jobs1Ms / Jobs4Ms : 0;
  }

  void finish(const LayerProfile &Layers) override {
    Report &Out = B.report();
    // Untimed round trip: every archive reads back to its input.
    for (const ProfileInput &In : Inputs) {
      ArchiveReader Reader;
      TwppWpp Wpp;
      bool Read = Reader.open(archivePath(In)) && Reader.readAll(Wpp);
      Out.check(Read && hashEvents(reconstructRawTrace(Wpp)) == In.EventsHash,
                In.Name + ": readAll + reconstructRawTrace equals the input");
    }

    uint64_t Owpp = 0, Archive = 0, FrameBytes = 0;
    StageSizes Sizes;
    uint64_t LzwIn = 0, LzwOut = 0;
    for (const ProfileInput &In : Inputs) {
      Owpp += In.OwppBytes;
      Archive += In.ArchiveBytes;
      FrameBytes += In.FrameBytes;
      Sizes.DedupedTraceBytes += In.Probe.Stages.DedupedTraceBytes;
      Sizes.DbbTraceBytes += In.Probe.Stages.DbbTraceBytes;
      Sizes.TwppTraceBytes += In.Probe.Stages.TwppTraceBytes;
      LzwIn += In.Probe.LzwBytesIn;
      LzwOut += In.Probe.LzwBytesOut;
    }
    // Each profile's rate over its median chain time; their geometric
    // mean, so a seed that lengthens one profile's run does not shift the
    // mix.
    size_t Reps = FrameUs.size();
    double LogSum = 0;
    for (const ProfileInput &In : Inputs) {
      double Rate =
          static_cast<double>(In.Events) / (median(In.ChainMs) / 1000.0);
      Out.metric("compact_events_per_s." + In.Short, Rate, "events/s", Reps);
      LogSum += std::log(Rate);
    }
    double Rate = std::exp(LogSum / static_cast<double>(Inputs.size()));
    Out.metric("compact_events_per_s", Rate, "events/s", Reps);
    Out.metric("throughput_per_s", Rate, "1/s", Reps);
    Out.metric("latency_us_p50", median(FrameUs), "us", Reps);
    Out.metric("compaction_factor",
               static_cast<double>(Owpp) / static_cast<double>(Archive), "x",
               Inputs.size());

    Out.metric("trace.owpp_bytes", static_cast<double>(Owpp), "bytes", 1);
    Out.metric("wpp.partition_bytes_out",
               static_cast<double>(Sizes.DedupedTraceBytes), "bytes", 1);
    Out.metric("wpp.dbb_bytes_out", static_cast<double>(Sizes.DbbTraceBytes),
               "bytes", 1);
    Out.metric("wpp.twpp_bytes_out", static_cast<double>(Sizes.TwppTraceBytes),
               "bytes", 1);
    Out.metric("support.lzw_bytes_in", static_cast<double>(LzwIn), "bytes", 1);
    Out.metric("support.lzw_bytes_out", static_cast<double>(LzwOut), "bytes",
               1);
    Out.metric("wpp.archive_bytes", static_cast<double>(Archive), "bytes", 1);

    if (Layers.Reps == 0)
      return;
    double ChainMs = Layers.at("bench.chain").TotalMs;
    for (const char *Layer : ChainLayers) {
      double Ms = Layers.at(Layer).SelfMs;
      Out.metric(std::string(Layer) + "_ms", Ms, "ms", Layers.Reps);
      Out.metric(shareName(Layer), Ms / ChainMs, "ratio", Layers.Reps);
      for (const ProfileInput &In : Inputs)
        Out.metric(std::string(Layer) + "_ms." + In.Short,
                   Layers.at(std::string(Layer) + "." + In.Short).SelfMs, "ms",
                   Layers.Reps);
    }
    double DecodeMs = Layers.at("ingest.wire_decode").SelfMs;
    Out.metric("ingest.wire_decode_mb_per_s",
               static_cast<double>(FrameBytes) / (1024.0 * 1024.0) /
                   (DecodeMs / 1000.0),
               "MiB/s", Layers.Reps);
    double LzwMs = 0;
    for (const ProfileInput &In : Inputs) {
      Out.metric("support.lzw_ms." + In.Short, In.LzwMs, "ms", 3);
      LzwMs += In.LzwMs;
    }
    Out.metric("support.lzw_ms", LzwMs, "ms", 3);
    Out.metric("support.lzw_share_of_encode",
               LzwMs / Layers.at("wpp.archive_encode").SelfMs, "ratio", 3);
    Out.metric("support.pool_speedup_jobs4", PoolSpeedup, "x", 1);
  }

private:
  std::string archivePath(const ProfileInput &In) const {
    return B.path("compact." + In.Short + ".twpp");
  }

  std::vector<ProfileInput> Inputs;
  std::vector<double> FrameUs; ///< Chain time per wire frame, per timed rep.
  double PoolSpeedup = 0;
};

} // namespace

std::unique_ptr<Workload> e2e::makeCompactWorkload(Bench &B) {
  return std::make_unique<CompactWorkload>(B);
}
