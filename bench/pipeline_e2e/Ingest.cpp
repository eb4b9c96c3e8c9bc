//===- bench/pipeline_e2e/Ingest.cpp - The ingest workload ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// ingest: a closed loop of two loopback producers (099.go and 132.ijpeg)
// feeding one IngestServer that journals checkpoints and writes one
// archive per producer. The same compaction layers as compact, driven
// through the server's single dispatcher under Block backpressure.
//
//===----------------------------------------------------------------------===//

#include "WritePath.h"

#include "ingest/Ingest.h"
#include "support/Crc32.h"
#include "support/FileIO.h"
#include "workloads/Workload.h"
#include "wpp/Archive.h"

using namespace twpp;
using namespace twpp::e2e;
using namespace twpp::ingest;

namespace {

struct ProducerInput {
  std::string Name;
  uint64_t EventsHash = 0;
  uint64_t OwppBytes = 0;
  // Filled by the warm-up rep.
  uint64_t ArchiveBytes = 0;
  uint32_t ArchiveCrc = 0;
};

/// Per-rep facts from IngestReport.
struct RepFacts {
  double ElapsedMs = 0;
  double QueuePeak = 0;
  double Waits = 0;
  double Checkpoints = 0;
  double Frames = 0;
};

class IngestWorkload final : public Workload {
public:
  using Workload::Workload;

  void setup() override {
    Inputs.clear();
    Traces.clear();
    const Options &Opt = B.options();
    std::vector<WorkloadProfile> Profiles =
        Opt.Smoke ? testProfiles() : paperProfiles();
    // 099.go (path-diverse) and 132.ijpeg (long loop traces).
    for (size_t Index : {0, 3}) {
      const WorkloadProfile &Profile = Profiles[Index];
      RawTrace Trace = runProfile(Profile, Opt.Seed);
      ProducerInput In;
      In.Name = Profile.Name;
      In.EventsHash = hashEvents(Trace);
      In.OwppBytes = owppBytes(Trace);
      Inputs.push_back(In);
      Traces.push_back(std::move(Trace));
    }
  }

  void echoInputs() override {
    for (size_t I = 0; I != Inputs.size(); ++I)
      B.report().echo("input " + Inputs[I].Name +
                      " events=" + std::to_string(Traces[I].Events.size()) +
                      " functions=" +
                      std::to_string(Traces[I].FunctionCount));
  }

  void rep(RepKind Kind) override {
    Report &Out = B.report();
    IngestConfig Config;
    Config.OutPrefix = B.path("ingest");
    Config.JournalPrefix = B.path("ingest");
    Config.CheckpointIntervalFrames = 64;
    Config.Policy = BackpressurePolicy::Block;
    Config.Parallel = ParallelConfig::withJobs(2);
    ProducerOptions Producer;
    Producer.BatchEvents = WireBatchEvents;

    IngestReport Result;
    double Start = nowUs();
    {
      SpanScope S(B.spans(), "ingest.run");
      Result = runLoopbackIngest(Config, Traces, Producer);
    }
    double WallMs = (nowUs() - Start) / 1000.0;

    Out.check(Result.clean(), "ingest report clean");
    Out.check(Result.Producers.size() == Inputs.size(),
              "one producer report per trace");
    RepFacts Facts;
    Facts.ElapsedMs = Result.ElapsedUs / 1000.0;
    Facts.QueuePeak = static_cast<double>(Result.QueueDepthPeak);
    Facts.Waits = static_cast<double>(Result.BackpressureWaits);
    Facts.Frames = static_cast<double>(Result.Frames);
    for (size_t I = 0; I != Result.Producers.size() && I != Inputs.size();
         ++I) {
      const ProducerReport &P = Result.Producers[I];
      Facts.Checkpoints += static_cast<double>(P.CheckpointsWritten);
      std::vector<uint8_t> Bytes;
      bool Read = readFileBytes(P.ArchivePath, Bytes).ok();
      uint32_t Crc = crc32(Bytes.data(), Bytes.size());
      if (Kind == RepKind::Warmup) {
        Inputs[I].ArchiveBytes = Bytes.size();
        Inputs[I].ArchiveCrc = Crc;
        ArchivePaths.push_back(P.ArchivePath);
        Out.check(Read, Inputs[I].Name + ": archive written");
      } else {
        Out.check(Read && Crc == Inputs[I].ArchiveCrc,
                  Inputs[I].Name + ": archive crc32 identical across reps");
      }
    }
    if (Kind == RepKind::Timed) {
      EventsPerSec.push_back(static_cast<double>(Result.EventsApplied) /
                             (WallMs / 1000.0));
      FrameUs.push_back(WallMs * 1000.0 / static_cast<double>(Result.Frames));
      Timed.push_back(Facts);
    }
  }

  void echoArchives() override {
    for (const ProducerInput &In : Inputs)
      B.report().archive(In.Name, In.ArchiveBytes, In.ArchiveCrc);
  }


  void extras() override {
    // The compact chain, serial, on the same two traces: what one thread
    // does with the work the server spreads over readers, dispatcher and
    // pool.
    SerialChainMs = 0;
    for (size_t I = 0; I != Traces.size(); ++I) {
      std::vector<uint8_t> Wire = encodeWireStream(Traces[I]);
      ChainResult R = runWriteChain(B.spans(), shortProfileName(Inputs[I].Name),
                                    Wire, B.path("ingest.serial.twpp"));
      B.report().check(R.Ok && R.ArchiveCrc == Inputs[I].ArchiveCrc,
                       Inputs[I].Name +
                           ": serial chain archive equals the ingest archive");
      SerialChainMs += R.WallMs;
    }
  }

  void finish(const LayerProfile &Layers) override {
    Report &Out = B.report();
    for (size_t I = 0; I != ArchivePaths.size(); ++I) {
      ArchiveReader Reader;
      TwppWpp Wpp;
      bool Read = Reader.open(ArchivePaths[I]) && Reader.readAll(Wpp);
      Out.check(Read &&
                    hashEvents(reconstructRawTrace(Wpp)) == Inputs[I].EventsHash,
                Inputs[I].Name +
                    ": readAll + reconstructRawTrace equals the input");
    }

    uint64_t Owpp = 0, Archive = 0;
    for (const ProducerInput &In : Inputs) {
      Owpp += In.OwppBytes;
      Archive += In.ArchiveBytes;
    }
    size_t Reps = EventsPerSec.size();
    double Rate = median(EventsPerSec);
    Out.metric("ingest_events_per_s", Rate, "events/s", Reps);
    Out.metric("throughput_per_s", Rate, "1/s", Reps);
    Out.metric("latency_us_p50", median(FrameUs), "us", Reps);
    Out.metric("compaction_factor",
               static_cast<double>(Owpp) / static_cast<double>(Archive), "x",
               Inputs.size());

    auto Median = [&](double RepFacts::*Field) {
      std::vector<double> Values;
      for (const RepFacts &F : Timed)
        Values.push_back(F.*Field);
      return median(Values);
    };
    Out.metric("ingest.elapsed_ms", Median(&RepFacts::ElapsedMs), "ms", Reps);
    Out.metric("ingest.queue_peak", Median(&RepFacts::QueuePeak), "frames",
               Reps);
    Out.metric("ingest.backpressure_waits", Median(&RepFacts::Waits), "count",
               Reps);
    Out.metric("ingest.checkpoints", Median(&RepFacts::Checkpoints), "count",
               Reps);
    Out.metric("ingest.frames", Median(&RepFacts::Frames), "count", Reps);
    if (Layers.Reps == 0)
      return;
    Out.metric("ingest.serial_chain_ms", SerialChainMs, "ms", 1);
    Out.metric("ingest.speedup_vs_serial",
               SerialChainMs / Layers.at("ingest.run").TotalMs, "x",
               Layers.Reps);
  }

  unsigned minReps() const override { return 5; }

private:
  std::vector<ProducerInput> Inputs;
  std::vector<RawTrace> Traces;
  std::vector<std::string> ArchivePaths;
  std::vector<double> EventsPerSec; ///< One per timed rep.
  std::vector<double> FrameUs;      ///< Rep time per wire frame.
  std::vector<RepFacts> Timed;
  double SerialChainMs = 0;
};

} // namespace

std::unique_ptr<Workload> e2e::makeIngestWorkload(Bench &B) {
  return std::make_unique<IngestWorkload>(B);
}
