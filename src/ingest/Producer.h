//===- ingest/Producer.h - Replay producer for twpp-wire-v1 ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The send side of the wire protocol: takes a RawTrace (in production
/// this would be the instrumented process's live event stream; here it is
/// a deterministic workload replay) and writes it to a file descriptor as
/// a Hello / Events* / Bye frame sequence.
///
/// The producer is also the chaos instrument: before each frame hits the
/// wire it consults the TWPP_FAULT seam's wire class
/// (support/FaultInjection.h) and applies the selected mutation —
/// corrupt (flip a payload byte), truncate (send a prefix), duplicate
/// (send twice), reorder (swap with the next frame), stall (sleep before
/// sending). Mutations are applied to the *bytes on the wire* only; the
/// producer's own sequence numbering stays correct, which is exactly the
/// failure model of a flaky transport under a correct producer.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_INGEST_PRODUCER_H
#define TWPP_INGEST_PRODUCER_H

#include "trace/Events.h"

#include <cstdint>
#include <string>

namespace twpp::ingest {

/// Knobs of one replay producer.
struct ProducerOptions {
  uint32_t ProducerId = 0;
  /// Events per Events frame. Bigger batches amortize syscalls and
  /// framing; the throughput bench runs at 4096.
  size_t BatchEvents = 4096;
  /// Sleep applied when a wire:stall fault fires on a frame.
  unsigned StallMs = 20;
};

/// Cumulative wire mutations one producer applied (all fault-driven).
struct ProducerWireStats {
  uint64_t FramesSent = 0;
  uint64_t BytesSent = 0;
  uint64_t Corrupted = 0;
  uint64_t Truncated = 0;
  uint64_t Duplicated = 0;
  uint64_t Reordered = 0;
  uint64_t Stalls = 0;
};

/// Streams \p Trace over \p Fd as twpp-wire-v1 frames (Hello, Events
/// batches, Bye), applying any armed wire faults with hit counters of
/// this call's own (fault::WireFaultState). \returns false when a
/// write on \p Fd fails terminally (receiver gone); short writes and
/// EINTR are retried. \p Stats, when given, receives the mutation tally.
bool sendTraceOverFd(int Fd, const RawTrace &Trace,
                     const ProducerOptions &Options,
                     ProducerWireStats *Stats = nullptr);

/// Connects to the Unix-domain listening socket at \p Path. \returns the
/// connected fd or -1 (with \p Error set) on failure. Retries briefly so
/// a producer racing the server's bind() does not flake.
int connectUnixSocket(const std::string &Path, std::string *Error);

} // namespace twpp::ingest

#endif // TWPP_INGEST_PRODUCER_H
