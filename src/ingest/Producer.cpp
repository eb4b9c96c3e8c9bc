//===- ingest/Producer.cpp - Replay producer for twpp-wire-v1 -------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "ingest/Producer.h"

#include "ingest/Wire.h"
#include "support/FaultInjection.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace twpp;
using namespace twpp::ingest;

namespace {

/// Writes all of [Data, Data+Size) to Fd, retrying EINTR and short
/// writes. EPIPE/closed receiver is terminal.
bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
#if defined(_WIN32)
  (void)Fd;
  (void)Data;
  (void)Size;
  return false;
#else
  bool IsSocket = true;
  while (Size > 0) {
    // MSG_NOSIGNAL: a receiver that closed (idle timeout, crash drill)
    // must surface as EPIPE, not kill the producer with SIGPIPE.
    // Plain pipes reject send() with ENOTSOCK; fall back to write() for
    // them.
    ssize_t N = IsSocket ? ::send(Fd, Data, Size, MSG_NOSIGNAL)
                         : ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (IsSocket && errno == ENOTSOCK) {
        IsSocket = false;
        continue;
      }
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
#endif
}

/// One frame staged for the wire, with its fault-selected mutation
/// already applied to the byte image.
struct StagedFrame {
  std::vector<uint8_t> Bytes;
  bool Reorder = false; ///< Hold until the next frame has been sent.
};

/// Frames a payload and applies any armed wire mutation to the encoding.
StagedFrame stageFrame(uint32_t ProducerId, uint64_t Sequence,
                       const std::vector<uint8_t> &Payload,
                       const ProducerOptions &Options,
                       fault::WireFaultState &Faults,
                       ProducerWireStats &Stats) {
  StagedFrame Staged;
  appendWireFrame(Staged.Bytes, ProducerId, Sequence, Payload);

  if (fault::shouldFaultWire(Faults, "corrupt")) {
    // Flip a byte in the middle of the frame (payload when there is one,
    // header otherwise) so the CRC — or the magic scan — must catch it.
    Staged.Bytes[Staged.Bytes.size() / 2] ^= 0xFF;
    ++Stats.Corrupted;
  }
  if (fault::shouldFaultWire(Faults, "truncate")) {
    // Keep a strict prefix: the header survives but the payload is torn,
    // the shape a died-mid-send producer leaves behind.
    Staged.Bytes.resize(Staged.Bytes.size() / 2);
    ++Stats.Truncated;
  }
  if (fault::shouldFaultWire(Faults, "duplicate")) {
    size_t Len = Staged.Bytes.size();
    Staged.Bytes.reserve(Len * 2);
    Staged.Bytes.insert(Staged.Bytes.end(), Staged.Bytes.begin(),
                        Staged.Bytes.begin() + static_cast<long>(Len));
    ++Stats.Duplicated;
  }
  if (fault::shouldFaultWire(Faults, "reorder")) {
    Staged.Reorder = true;
    ++Stats.Reordered;
  }
  if (fault::shouldFaultWire(Faults, "stall")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(Options.StallMs));
    ++Stats.Stalls;
  }
  return Staged;
}

} // namespace

bool ingest::sendTraceOverFd(int Fd, const RawTrace &Trace,
                             const ProducerOptions &Options,
                             ProducerWireStats *StatsOut) {
  ProducerWireStats Stats;
  fault::WireFaultState Faults;
  uint64_t Sequence = 0;
  // A frame held back by a reorder fault; flushed after its successor.
  std::vector<uint8_t> Held;

  auto Send = [&](const std::vector<uint8_t> &Payload) {
    StagedFrame Staged = stageFrame(Options.ProducerId, Sequence++, Payload,
                                    Options, Faults, Stats);
    if (Staged.Reorder && Held.empty()) {
      Held = std::move(Staged.Bytes);
      return true;
    }
    if (!writeAll(Fd, Staged.Bytes.data(), Staged.Bytes.size()))
      return false;
    ++Stats.FramesSent;
    Stats.BytesSent += Staged.Bytes.size();
    if (!Held.empty()) {
      if (!writeAll(Fd, Held.data(), Held.size()))
        return false;
      ++Stats.FramesSent;
      Stats.BytesSent += Held.size();
      Held.clear();
    }
    return true;
  };

  bool Ok = Send(encodeHelloPayload(Trace.FunctionCount));
  size_t Batch = Options.BatchEvents == 0 ? 1 : Options.BatchEvents;
  for (size_t I = 0; Ok && I < Trace.Events.size(); I += Batch) {
    size_t End = std::min(I + Batch, Trace.Events.size());
    Ok = Send(encodeEventsPayload(Trace.Events.data() + I,
                                  Trace.Events.data() + End));
  }
  if (Ok)
    Ok = Send(encodeByePayload(Trace.Events.size()));
  // A trailing held frame (reorder fault on the last frame) still has to
  // reach the wire — late, which is the point.
  if (Ok && !Held.empty()) {
    Ok = writeAll(Fd, Held.data(), Held.size());
    if (Ok) {
      ++Stats.FramesSent;
      Stats.BytesSent += Held.size();
    }
  }
  if (StatsOut)
    *StatsOut = Stats;
  return Ok;
}

int ingest::connectUnixSocket(const std::string &Path, std::string *Error) {
#if defined(_WIN32)
  if (Error)
    *Error = "unix sockets unsupported on this platform";
  return -1;
#else
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Path;
    return -1;
  }
  // The server may still be between bind() and listen(); retry with a
  // short backoff instead of making every producer launch a lockstep
  // dance.
  for (int Attempt = 0; Attempt < 50; ++Attempt) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      if (Error)
        *Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return Fd;
    int Err = errno;
    ::close(Fd);
    if (Err != ENOENT && Err != ECONNREFUSED) {
      if (Error)
        *Error = std::string("connect ") + Path + ": " + std::strerror(Err);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (Error)
    *Error = "connect " + Path + ": server never came up";
  return -1;
#endif
}
