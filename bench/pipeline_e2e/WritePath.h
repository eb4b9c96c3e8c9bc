//===- bench/pipeline_e2e/WritePath.h - The serial write chain --*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write path as one serial chain, shared by the compact workload and
/// the ingest workload's serial baseline:
///
///   twpp-wire-v1 frames --FrameDecoder+decodeWirePayload--> RawTrace
///     --partitionWpp--> --applyDbbCompaction--> --convertToTwpp-->
///     --encodeArchive--> --writeFileBytesAtomic--> archive file
///
/// Each arrow is one span, opened by the bench around the layer's public
/// function.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_BENCH_PIPELINE_E2E_WRITEPATH_H
#define TWPP_BENCH_PIPELINE_E2E_WRITEPATH_H

#include "Harness.h"

#include "trace/Events.h"
#include "workloads/Workload.h"
#include "wpp/Sizes.h"

#include <cstdint>
#include <string>
#include <vector>

namespace twpp::e2e {

/// Events per Events frame, as the ingest producers send them.
inline constexpr size_t WireBatchEvents = 4096;

/// One run of \p Profile's program with the run's path choices shifted
/// by \p Seed: the program (CFGs, path pools, call structure) stays the
/// paper profile's, so input size and shape stay stable across seeds, and
/// seed 0 reproduces the paper-table trace.
RawTrace runProfile(const WorkloadProfile &Profile, uint64_t Seed);

/// Hash of the event stream (kind and id of every event, not the struct
/// padding) plus the function count.
uint64_t hashEvents(const RawTrace &Trace);

/// Encodes \p Trace as one producer's twpp-wire-v1 stream: Hello, Events
/// frames of WireBatchEvents, Bye.
std::vector<uint8_t> encodeWireStream(const RawTrace &Trace);

/// The ingest layer's receive side, as a reader thread drives it: feeds
/// read-sized chunks to a FrameDecoder, pulls every complete frame and
/// decodes its payload into \p Trace. \returns true when the stream was
/// clean and complete (no damage, Bye total == events decoded).
bool decodeWireStream(const std::vector<uint8_t> &Wire, RawTrace &Trace,
                      uint64_t &Frames, uint64_t &FrameBytes);

/// What the warm-up rep checks and measures on the way through the chain:
/// the decoded events' hash and each stage's size. Filled on request only;
/// hashing and measuring stages cost far more than a timed chain may.
struct ChainProbe {
  uint64_t DecodedHash = 0;
  StageSizes Stages;
  uint64_t LzwBytesIn = 0;
  uint64_t LzwBytesOut = 0;
};

struct ChainResult {
  bool Ok = false; ///< Stream decoded cleanly and the archive was written.
  uint64_t Events = 0;
  uint64_t Frames = 0;
  uint64_t FrameBytes = 0;
  uint64_t ArchiveBytes = 0;
  uint32_t ArchiveCrc = 0;
  double WallMs = 0;
};

/// Runs the chain over \p Wire and writes the archive to \p Path. Spans
/// carry \p Label. \p Probe, when given, receives the stage sizes after
/// the chain's wall time is taken.
ChainResult runWriteChain(SpanRecorder &Rec, const std::string &Label,
                          const std::vector<uint8_t> &Wire,
                          const std::string &Path, ChainProbe *Probe = nullptr);

/// The uncompacted (.owpp) byte size of \p Trace.
uint64_t owppBytes(const RawTrace &Trace);

} // namespace twpp::e2e

#endif // TWPP_BENCH_PIPELINE_E2E_WRITEPATH_H
