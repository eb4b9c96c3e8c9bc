//===- ingest/Ingest.cpp - Multi-producer ingestion frontend --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
//
// Threading model: one reader thread per connection and no other. A
// reader owns its fd and frame decoder. Each producer has one mutex that
// guards its sequencer, compactor, journal and ledger; the reader that
// releases a producer's next in-order frame applies it (and writes any
// checkpoint it triggers) under that lock, so a producer's recoverable
// state changes one frame at a time even when its frames arrive on two
// connections, and checkpoints are consistent by construction.
// Backpressure is the socket's: a reader busy compacting does not read.
//
// Accounting model: sequence-window outcomes (duplicate, reordered,
// replayed) are counted where they are decided, in the sequencer.
// Everything that must survive a crash (frames/events applied, gaps,
// invalid payloads, handshake flags) is counted as frames are applied,
// from the in-order stream itself — a gap is a jump in applied sequence
// numbers — and rides inside every checkpoint record.
//
//===----------------------------------------------------------------------===//

#include "ingest/Ingest.h"

#include "ingest/Wire.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/FaultInjection.h"
#include "wpp/Archive.h"
#include "wpp/Journal.h"
#include "wpp/Streaming.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#if !defined(_WIN32)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace twpp;
using namespace twpp::ingest;

namespace {

/// Transient read-error retries per connection before it is treated as
/// disconnected; retry k backs off RetryBackoffMs << (k-1).
constexpr unsigned ReadRetryLimit = 3;
constexpr unsigned RetryBackoffMs = 1;
/// read() chunk size. Frames routinely straddle chunk edges; the decoder
/// is built for it.
constexpr size_t ReadChunkBytes = 64 * 1024;
/// Hello functionCount sanity cap: a CRC-valid Hello beyond it is invalid
/// (a garbage count would pre-size that many tables).
constexpr uint32_t MaxFunctionCount = 1u << 20;

constexpr uint32_t CheckpointVersion = 1;
constexpr uint8_t FlagSawHello = 1u << 0;
constexpr uint8_t FlagSawBye = 1u << 1;
constexpr uint8_t FlagHasSnapshot = 1u << 2;

/// One checkpoint record: the producer's ledger plus the compactor
/// snapshot.
struct CheckpointImage {
  uint32_t ProducerId = 0;
  ProducerLedger Ledger;
  std::vector<uint8_t> Snapshot; ///< Empty when no compactor existed.
  bool HasSnapshot = false;
};

std::vector<uint8_t> encodeCheckpoint(const CheckpointImage &Image) {
  ByteWriter W;
  W.writeFixed32(CheckpointVersion);
  W.writeFixed32(Image.ProducerId);
  W.writeFixed32(Image.Ledger.FunctionCount);
  uint8_t Flags = 0;
  if (Image.Ledger.SawHello)
    Flags |= FlagSawHello;
  if (Image.Ledger.SawBye)
    Flags |= FlagSawBye;
  if (Image.HasSnapshot)
    Flags |= FlagHasSnapshot;
  W.writeByte(Flags);
  W.writeFixed64(Image.Ledger.NextSeq);
  W.writeFixed64(Image.Ledger.FramesApplied);
  W.writeFixed64(Image.Ledger.EventsApplied);
  W.writeFixed64(Image.Ledger.EventsDropped);
  W.writeFixed64(Image.Ledger.EventsDeclared);
  W.writeFixed64(Image.Ledger.FramesInvalid);
  W.writeFixed64(Image.Ledger.SeqGaps);
  W.writeFixed64(Image.Ledger.CheckpointsWritten);
  W.writeVarUint(Image.Snapshot.size());
  W.writeBytes(Image.Snapshot.data(), Image.Snapshot.size());
  return W.take();
}

bool decodeCheckpoint(const std::vector<uint8_t> &Payload,
                      CheckpointImage &Image) {
  ByteReader R(Payload);
  if (R.readFixed32() != CheckpointVersion)
    return false;
  Image.ProducerId = R.readFixed32();
  Image.Ledger.FunctionCount = R.readFixed32();
  uint8_t Flags = R.readByte();
  Image.Ledger.SawHello = (Flags & FlagSawHello) != 0;
  Image.Ledger.SawBye = (Flags & FlagSawBye) != 0;
  Image.HasSnapshot = (Flags & FlagHasSnapshot) != 0;
  Image.Ledger.NextSeq = R.readFixed64();
  Image.Ledger.FramesApplied = R.readFixed64();
  Image.Ledger.EventsApplied = R.readFixed64();
  Image.Ledger.EventsDropped = R.readFixed64();
  Image.Ledger.EventsDeclared = R.readFixed64();
  Image.Ledger.FramesInvalid = R.readFixed64();
  Image.Ledger.SeqGaps = R.readFixed64();
  Image.Ledger.CheckpointsWritten = R.readFixed64();
  uint64_t SnapshotSize = R.readVarUint();
  if (R.hasError() || SnapshotSize != R.remaining())
    return false;
  Image.Snapshot.resize(static_cast<size_t>(SnapshotSize));
  R.readBytes(Image.Snapshot.data(), Image.Snapshot.size());
  return R.valid() && R.atEnd();
}

/// Per-producer reorder window, guarded by the producer's mutex. Frames
/// leave in strict sequence order; everything the window decides
/// (duplicate, reordered, replayed) is counted here.
struct SequenceTracker {
  uint64_t Expected = 0;
  size_t Window = 16;
  /// True after a journal resume: below-cursor frames are the producer's
  /// re-sent prefix, not wire damage.
  bool ResumedBase = false;
  std::map<uint64_t, std::vector<uint8_t>> Pending;

  uint64_t Duplicates = 0;
  uint64_t Reordered = 0;
  uint64_t Replayed = 0;

  /// Offers one frame; appends frames now deliverable in order to
  /// \p Ready as (sequence, payload) pairs.
  void push(uint64_t Seq, std::vector<uint8_t> Payload,
            std::vector<std::pair<uint64_t, std::vector<uint8_t>>> &Ready) {
    if (Seq < Expected) {
      if (ResumedBase)
        ++Replayed;
      else
        ++Duplicates;
      return;
    }
    if (Seq == Expected) {
      Ready.emplace_back(Seq, std::move(Payload));
      ++Expected;
      drainConsecutive(Ready);
      return;
    }
    // Ahead of the cursor: buffer it. A repeat of a buffered sequence is
    // a duplicate; a fresh one counts as reordered the moment it has to
    // wait.
    if (!Pending.emplace(Seq, std::move(Payload)).second) {
      ++Duplicates;
      return;
    }
    ++Reordered;
    // Window overflow: the hole is not going to fill in time. Jump the
    // cursor to the oldest buffered frame; applying it sees the sequence
    // jump and accounts the gap.
    while (Pending.size() > Window) {
      auto First = Pending.begin();
      Expected = First->first + 1;
      Ready.emplace_back(First->first, std::move(First->second));
      Pending.erase(First);
      drainConsecutive(Ready);
    }
  }

  /// End of stream: whatever is still buffered is as in-order as it will
  /// ever get. Flush ascending; holes become visible as sequence jumps.
  void
  finish(std::vector<std::pair<uint64_t, std::vector<uint8_t>>> &Ready) {
    for (auto &Entry : Pending)
      Ready.emplace_back(Entry.first, std::move(Entry.second));
    if (!Pending.empty())
      Expected = Pending.rbegin()->first + 1;
    Pending.clear();
  }

private:
  void drainConsecutive(
      std::vector<std::pair<uint64_t, std::vector<uint8_t>>> &Ready) {
    auto It = Pending.begin();
    while (It != Pending.end() && It->first == Expected) {
      Ready.emplace_back(It->first, std::move(It->second));
      ++Expected;
      It = Pending.erase(It);
    }
  }
};

/// Everything known about one producer id. Reader threads create it (and
/// run the journal-resume scan) on first contact; while the readers run,
/// every field but Id is touched only under Mutex.
struct ProducerState {
  uint32_t Id = 0;
  std::mutex Mutex;
  SequenceTracker Sequencer;
  std::unique_ptr<StreamingCompactor> Compactor;
  JournalWriter Journal;
  bool JournalOpen = false;
  bool Resumed = false;
  ProducerLedger Ledger;
  uint64_t FramesSinceCheckpoint = 0;
  uint64_t CheckpointFailures = 0;
};

struct Connection {
  int Fd = -1;
  std::thread Thread;
};

} // namespace

struct IngestServer::Impl {
  IngestConfig Config;
  std::vector<Connection> Connections;
  int ListenFd = -1;
  std::string ListenPath;
  bool RunCalled = false;

  // Producer registry: readers create states on first contact.
  std::mutex RegistryMutex;
  std::map<uint32_t, std::unique_ptr<ProducerState>> Producers;

  /// Set once the crash hook has run, by whichever thread ran it: the
  /// run is aborted and no frame is applied after it.
  std::atomic<bool> Stop{false};

  // Checkpoints appended across producers, for the crash drill.
  std::atomic<uint64_t> TotalCheckpoints{0};

  // Global accounting.
  std::atomic<uint64_t> Frames{0};
  std::atomic<uint64_t> FrameBytes{0};
  std::atomic<uint64_t> CorruptFrames{0};
  std::atomic<uint64_t> ResyncBytes{0};
  std::atomic<uint64_t> ReadRetries{0};
  std::atomic<uint64_t> IdleTimeouts{0};
  std::atomic<uint64_t> Resumes{0};

  ~Impl() {
#if !defined(_WIN32)
    for (Connection &C : Connections)
      if (C.Fd >= 0)
        ::close(C.Fd);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      if (!ListenPath.empty())
        ::unlink(ListenPath.c_str());
    }
#endif
  }

  std::string journalPath(uint32_t ProducerId) const {
    return Config.JournalPrefix + ".p" + std::to_string(ProducerId) +
           ".twppj";
  }

  std::string archivePath(uint32_t ProducerId) const {
    return Config.OutPrefix + ".p" + std::to_string(ProducerId) + ".twppa";
  }

  StreamingConfig compactorConfig() const {
    StreamingConfig SC;
    SC.MemoryBudgetBytes = Config.MemoryBudgetBytes;
    return SC;
  }

  /// Looks up (or creates, running the resume scan) the state of
  /// \p ProducerId. Thread-safe; called by readers.
  ProducerState *producer(uint32_t ProducerId) {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    auto It = Producers.find(ProducerId);
    if (It != Producers.end())
      return It->second.get();
    auto State = std::make_unique<ProducerState>();
    State->Id = ProducerId;
    State->Sequencer.Window = std::max<size_t>(1, Config.ReorderWindow);
    if (!Config.JournalPrefix.empty()) {
      if (Config.Resume)
        tryResume(*State);
      // Append when resuming (keep the history we just scanned),
      // truncate otherwise so a reused prefix cannot replay stale state.
      IoError Err =
          State->Journal.open(journalPath(ProducerId), State->Resumed);
      State->JournalOpen = Err.ok();
      if (!Err.ok())
        ++State->CheckpointFailures;
    }
    ProducerState *Raw = State.get();
    Producers.emplace(ProducerId, std::move(State));
    return Raw;
  }

  /// Scans the producer's journal and restores the last checkpoint into
  /// \p State. Any damage or absence just means a fresh start — resume
  /// never fails harder than "replay everything".
  void tryResume(ProducerState &State) {
    std::vector<uint8_t> Bytes;
    {
      // The scan read is setup, not the path under test: a CI-wide io
      // fault sweep must not turn "resume" into "silently start over".
      fault::ScopedFaultSuspend Suspend;
      if (!readFileBytes(journalPath(State.Id), Bytes).ok())
        return;
    }
    JournalScan Scan = scanJournal(Bytes);
    if (Scan.LastPayload.empty())
      return;
    CheckpointImage Image;
    if (!decodeCheckpoint(Scan.LastPayload, Image) ||
        Image.ProducerId != State.Id)
      return;
    if (Image.HasSnapshot) {
      auto Compactor = std::make_unique<StreamingCompactor>(
          Image.Ledger.FunctionCount, compactorConfig());
      if (!Compactor->restoreState(Image.Snapshot))
        return;
      State.Compactor = std::move(Compactor);
    }
    State.Ledger = Image.Ledger;
    State.Resumed = true;
    State.Sequencer.Expected = Image.Ledger.NextSeq;
    State.Sequencer.ResumedBase = true;
    Resumes.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sequences every frame decodable from \p Decoder and applies the
  /// ones that became deliverable, under their producer's lock.
  void drainDecoder(FrameDecoder &Decoder, WirePayload &Scratch) {
    WireFrame Frame;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Ready;
    while (Decoder.next(Frame)) {
      ProducerState *State = producer(Frame.ProducerId);
      Ready.clear();
      std::lock_guard<std::mutex> Lock(State->Mutex);
      State->Sequencer.push(Frame.Sequence, std::move(Frame.Payload),
                            Ready);
      if (!applyReady(*State, Ready, Scratch))
        return;
    }
  }

  /// Applies \p Ready in order; the caller holds \p P's lock. \returns
  /// false, having applied nothing further, once the crash hook has run.
  bool applyReady(ProducerState &P,
                  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> &Ready,
                  WirePayload &Scratch) {
    for (auto &Entry : Ready) {
      if (Stop.load(std::memory_order_relaxed))
        return false;
      apply(P, Entry.first, Entry.second, Scratch);
    }
    return !Stop.load(std::memory_order_relaxed);
  }

  /// Reader thread body: poll/read/decode until EOF, idle timeout,
  /// persistent error or stop.
  void readerLoop(Connection &C) {
#if !defined(_WIN32)
    FrameDecoder Decoder;
    WirePayload Scratch;
    std::vector<uint8_t> Chunk(ReadChunkBytes);
    unsigned Retries = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      pollfd Pfd{};
      Pfd.fd = C.Fd;
      Pfd.events = POLLIN;
      int R = ::poll(&Pfd, 1, static_cast<int>(Config.IdleTimeoutMs));
      if (Stop.load(std::memory_order_relaxed))
        break;
      if (R == 0) {
        // No bytes for the whole idle window: the producer is gone or
        // wedged. Close our end; its producers finish unclean unless
        // they already said Bye.
        IdleTimeouts.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (R < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      bool Injected = fault::shouldFailIo("read");
      ssize_t N =
          Injected ? -1 : ::read(C.Fd, Chunk.data(), Chunk.size());
      int Err = Injected ? EIO : errno;
      if (N > 0) {
        Retries = 0;
        Decoder.feed(Chunk.data(), static_cast<size_t>(N));
        drainDecoder(Decoder, Scratch);
        continue;
      }
      if (N == 0)
        break; // EOF: orderly close.
      if (Err == EINTR || Err == EAGAIN || Err == EWOULDBLOCK)
        continue;
      if (Retries < ReadRetryLimit) {
        // Transient read failure (or an injected one): back off and
        // retry before declaring the connection dead.
        ++Retries;
        ReadRetries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            RetryBackoffMs << (Retries - 1)));
        continue;
      }
      break; // Persistent failure: treat as disconnect.
    }
    Decoder.finish();
    drainDecoder(Decoder, Scratch);
    Frames.fetch_add(Decoder.stats().Frames, std::memory_order_relaxed);
    FrameBytes.fetch_add(Decoder.stats().FrameBytes,
                         std::memory_order_relaxed);
    CorruptFrames.fetch_add(Decoder.stats().CorruptFrames,
                            std::memory_order_relaxed);
    ResyncBytes.fetch_add(Decoder.stats().ResyncBytes,
                          std::memory_order_relaxed);
    ::close(C.Fd);
    C.Fd = -1;
#else
    (void)C;
#endif
  }

  /// Applies one in-order frame to its producer; the caller holds its
  /// lock. \p Payload is the decode buffer, reused across frames.
  void apply(ProducerState &P, uint64_t Seq,
             const std::vector<uint8_t> &PayloadBytes, WirePayload &Payload) {
    if (Seq > P.Ledger.NextSeq)
      P.Ledger.SeqGaps += Seq - P.Ledger.NextSeq;
    // Below-cursor can only happen on a resumed run whose journal was
    // behind the sequencer flush; drop, the state already covers it.
    if (Seq < P.Ledger.NextSeq)
      return;
    P.Ledger.NextSeq = Seq + 1;
    P.Ledger.FramesApplied += 1;
    P.FramesSinceCheckpoint += 1;

    if (!decodeWirePayload(ByteSpan(PayloadBytes), Payload)) {
      // CRC-valid but the payload would not decode.
      P.Ledger.FramesInvalid += 1;
      return;
    }
    try {
      switch (Payload.Kind) {
      case WireFrameKind::Hello:
        if (P.Compactor) {
          // A second Hello (or one disagreeing with the resumed state)
          // cannot be honoured without discarding data; count it.
          if (Payload.FunctionCount != P.Ledger.FunctionCount)
            P.Ledger.FramesInvalid += 1;
        } else if (Payload.FunctionCount > MaxFunctionCount) {
          P.Ledger.FramesInvalid += 1;
        } else {
          P.Compactor = std::make_unique<StreamingCompactor>(
              Payload.FunctionCount, compactorConfig());
          P.Ledger.FunctionCount = Payload.FunctionCount;
          P.Ledger.SawHello = true;
        }
        break;
      case WireFrameKind::Events:
        if (!P.Compactor) {
          // The Hello fell into a gap; without the function universe the
          // events cannot be folded in. Count, don't crash.
          P.Ledger.EventsDropped += Payload.Events.size();
          break;
        }
        // The compactor's preconditions are asserts (compiled out in
        // release); the wire is untrusted, so onEvents guards each event
        // and accounts for the ones it drops.
        P.Compactor->onEvents(Payload.Events.data(),
                              Payload.Events.data() + Payload.Events.size(),
                              P.Ledger.EventsApplied, P.Ledger.EventsDropped);
        break;
      case WireFrameKind::Bye:
        P.Ledger.EventsDeclared = Payload.TotalEvents;
        P.Ledger.SawBye = true;
        break;
      }
    } catch (const std::bad_alloc &) {
      // Allocation pressure while folding a frame in: the frame is lost
      // but the server is not.
      P.Ledger.FramesInvalid += 1;
    }

    maybeCheckpoint(P);
  }

  void maybeCheckpoint(ProducerState &P) {
    if (!P.JournalOpen || Config.CheckpointIntervalFrames == 0 ||
        P.FramesSinceCheckpoint < Config.CheckpointIntervalFrames)
      return;
    writeCheckpoint(P);
  }

  void writeCheckpoint(ProducerState &P) {
    P.FramesSinceCheckpoint = 0;
    if (!P.JournalOpen)
      return;
    try {
      CheckpointImage Image;
      Image.ProducerId = P.Id;
      Image.Ledger = P.Ledger;
      if (P.Compactor) {
        Image.Snapshot = P.Compactor->snapshotState();
        Image.HasSnapshot = true;
      }
      IoError Err = P.Journal.append(encodeCheckpoint(Image));
      if (!Err.ok()) {
        P.CheckpointFailures += 1;
        return;
      }
    } catch (const std::bad_alloc &) {
      P.CheckpointFailures += 1;
      return;
    }
    P.Ledger.CheckpointsWritten += 1;
    // Exactly one checkpoint, on whichever reader appends it, is the K-th.
    if (TotalCheckpoints.fetch_add(1) + 1 == Config.CrashAfterCheckpoints &&
        Config.CrashHook) {
      // It runs under the producer's lock, so this producer's journal
      // ends at this checkpoint. The hook usually never returns
      // (raise(SIGKILL)). If it does — in-process durability tests —
      // stop as a crash would: no drain, no finalize, journals as they
      // are.
      Config.CrashHook();
      Stop.store(true);
    }
  }

  /// After the readers joined: flush every sequencer's reorder window
  /// (holes become sequence jumps) and apply what it held.
  void flushSequencers() {
    std::vector<ProducerState *> States;
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      for (auto &Entry : Producers)
        States.push_back(Entry.second.get());
    }
    WirePayload Scratch;
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Ready;
    for (ProducerState *State : States) {
      Ready.clear();
      std::lock_guard<std::mutex> Lock(State->Mutex);
      State->Sequencer.finish(Ready);
      if (!applyReady(*State, Ready, Scratch))
        return;
    }
  }

  /// Drain is done: balance, compact and write out every producer.
  void finalizeProducer(ProducerState &P, ProducerReport &Report) {
    Report.ProducerId = P.Id;
    Report.Resumed = P.Resumed;
    Report.FramesDuplicate = P.Sequencer.Duplicates;
    Report.FramesReordered = P.Sequencer.Reordered;
    Report.FramesReplayed = P.Sequencer.Replayed;
    Report.CheckpointFailures = P.CheckpointFailures;
    Report.Disconnected = !P.Ledger.SawBye;

    if (P.Compactor) {
      // An unbalanced stream (disconnect, gap that ate exits) cannot be
      // compacted as-is; close the open calls and say so.
      while (P.Compactor->openFrames() > 0) {
        try {
          P.Compactor->onExit();
        } catch (...) {
          break;
        }
        Report.SynthesizedExits += 1;
      }
      Report.DegradedFrames = P.Compactor->degradedFrames();
      // The stream is complete: one final checkpoint makes a restart
      // after a crash-during-finalize resume cleanly instead of
      // replaying the whole stream.
      if (P.JournalOpen && Config.CheckpointIntervalFrames != 0)
        writeCheckpoint(P);

      if (!Config.OutPrefix.empty()) {
        Report.ArchivePath = archivePath(P.Id);
        try {
          TwppWpp Compacted = P.Compactor->takeCompacted(Config.Parallel);
          IoError Err;
          if (!writeArchiveFile(Report.ArchivePath, Compacted,
                                Config.Parallel, &Err))
            Report.ArchiveError = Err;
        } catch (const std::bad_alloc &) {
          Report.ArchiveError.Status = IoStatus::WriteFailed;
          Report.ArchiveError.Detail =
              Report.ArchivePath + " (out of memory)";
        }
      }
    }
    static_cast<ProducerLedger &>(Report) = P.Ledger;
    P.Journal.close();
  }
};

IngestServer::IngestServer(const IngestConfig &Config)
    : P(std::make_unique<Impl>()) {
  P->Config = Config;
}

IngestServer::~IngestServer() = default;

void IngestServer::addConnection(int Fd) {
  Connection C;
  C.Fd = Fd;
  P->Connections.push_back(std::move(C));
}

bool IngestServer::listenUnixSocket(const std::string &Path, size_t Expect,
                                    std::string *Error) {
#if defined(_WIN32)
  (void)Path;
  (void)Expect;
  if (Error)
    *Error = "unix sockets unsupported on this platform";
  return false;
#else
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Path;
    return false;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Path.c_str());
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, static_cast<int>(std::max<size_t>(Expect, 1))) != 0) {
    if (Error)
      *Error = std::string("bind/listen ") + Path + ": " +
               std::strerror(errno);
    ::close(Fd);
    return false;
  }
  P->ListenFd = Fd;
  P->ListenPath = Path;
  for (size_t I = 0; I < Expect; ++I) {
    pollfd Pfd{};
    Pfd.fd = Fd;
    Pfd.events = POLLIN;
    int R = ::poll(&Pfd, 1, static_cast<int>(P->Config.IdleTimeoutMs));
    if (R <= 0) {
      if (Error)
        *Error = "accept timed out waiting for producer " +
                 std::to_string(I + 1) + " of " + std::to_string(Expect);
      return false;
    }
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (Error)
        *Error = std::string("accept: ") + std::strerror(errno);
      return false;
    }
    addConnection(Conn);
  }
  return true;
#endif
}

IngestReport IngestServer::run() {
  IngestReport Report;
  if (P->RunCalled) {
    Report.FatalError = "run() called twice";
    return Report;
  }
  P->RunCalled = true;
#if defined(_WIN32)
  Report.FatalError = "ingestion unsupported on this platform";
  return Report;
#else
  auto Start = std::chrono::steady_clock::now();

  for (Connection &C : P->Connections)
    C.Thread = std::thread([this, &C] { P->readerLoop(C); });
  for (Connection &C : P->Connections)
    C.Thread.join();
  if (!P->Stop.load(std::memory_order_relaxed))
    P->flushSequencers();

  Report.Aborted = P->Stop.load();
  if (!Report.Aborted) {
    std::lock_guard<std::mutex> Lock(P->RegistryMutex);
    for (auto &Entry : P->Producers) {
      ProducerReport PR;
      P->finalizeProducer(*Entry.second, PR);
      Report.Producers.push_back(std::move(PR));
    }
  }

  Report.Frames = P->Frames.load();
  Report.FrameBytes = P->FrameBytes.load();
  Report.CorruptFrames = P->CorruptFrames.load();
  Report.ResyncBytes = P->ResyncBytes.load();
  Report.ReadRetries = P->ReadRetries.load();
  Report.IdleTimeouts = P->IdleTimeouts.load();
  for (const ProducerReport &PR : Report.Producers)
    Report.EventsApplied += PR.EventsApplied;
  Report.ElapsedUs =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - Start)
          .count();
  return Report;
#endif
}

IngestReport ingest::runLoopbackIngest(const IngestConfig &Config,
                                       const std::vector<RawTrace> &Traces,
                                       const ProducerOptions &BaseOptions) {
#if defined(_WIN32)
  IngestReport Report;
  Report.FatalError = "ingestion unsupported on this platform";
  return Report;
#else
  IngestServer Server(Config);
  std::vector<std::thread> ProducerThreads;
  std::vector<int> WriteFds;
  for (size_t I = 0; I < Traces.size(); ++I) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
      IngestReport Report;
      Report.FatalError =
          std::string("socketpair: ") + std::strerror(errno);
      for (int Fd : WriteFds)
        ::close(Fd);
      return Report;
    }
    Server.addConnection(Sv[0]);
    WriteFds.push_back(Sv[1]);
  }
  for (size_t I = 0; I < Traces.size(); ++I) {
    ProducerOptions Options = BaseOptions;
    Options.ProducerId = static_cast<uint32_t>(I);
    int Fd = WriteFds[I];
    const RawTrace *Trace = &Traces[I];
    ProducerThreads.emplace_back([Fd, Trace, Options] {
      sendTraceOverFd(Fd, *Trace, Options);
      ::close(Fd);
    });
  }
  IngestReport Report = Server.run();
  for (std::thread &T : ProducerThreads)
    T.join();
  return Report;
#endif
}

void ingest::publishIngestMetrics(const IngestReport &Report) {
  auto &M = obs::metrics();
  namespace names = obs::names;
  M.counter(names::IngestProducers).add(Report.Producers.size());
  M.counter(names::IngestFrames).add(Report.Frames);
  M.counter(names::IngestFrameBytes).add(Report.FrameBytes);
  M.counter(names::IngestFramesCorrupt).add(Report.CorruptFrames);
  M.counter(names::IngestResyncBytes).add(Report.ResyncBytes);
  M.counter(names::IngestReadRetries).add(Report.ReadRetries);
  M.counter(names::IngestIdleTimeouts).add(Report.IdleTimeouts);
  if (Report.ElapsedUs > 0)
    M.gauge(names::IngestEventsPerSec)
        .set(static_cast<int64_t>(Report.EventsApplied * 1e6 /
                                  Report.ElapsedUs));

  uint64_t Events = 0, EventsDropped = 0, EventsLost = 0, Invalid = 0;
  uint64_t Duplicates = 0, Reordered = 0, Replayed = 0, Gaps = 0;
  uint64_t SynthExits = 0, Disconnects = 0;
  uint64_t Resumes = 0, Checkpoints = 0, CheckpointFailures = 0;
  for (const ProducerReport &PR : Report.Producers) {
    Events += PR.EventsApplied;
    EventsDropped += PR.EventsDropped;
    EventsLost += PR.eventsLost();
    Invalid += PR.FramesInvalid;
    Duplicates += PR.FramesDuplicate;
    Reordered += PR.FramesReordered;
    Replayed += PR.FramesReplayed;
    Gaps += PR.SeqGaps;
    SynthExits += PR.SynthesizedExits;
    Disconnects += PR.Disconnected ? 1 : 0;
    Resumes += PR.Resumed ? 1 : 0;
    Checkpoints += PR.CheckpointsWritten;
    CheckpointFailures += PR.CheckpointFailures;
  }
  M.counter(names::IngestEvents).add(Events);
  M.counter(names::IngestEventsDropped).add(EventsDropped);
  M.counter(names::IngestEventsLost).add(EventsLost);
  M.counter(names::IngestFramesInvalid).add(Invalid);
  M.counter(names::IngestFramesDuplicate).add(Duplicates);
  M.counter(names::IngestFramesReordered).add(Reordered);
  M.counter(names::IngestFramesReplayed).add(Replayed);
  M.counter(names::IngestSeqGaps).add(Gaps);
  M.counter(names::IngestSynthesizedExits).add(SynthExits);
  M.counter(names::IngestDisconnects).add(Disconnects);
  M.counter(names::IngestResumes).add(Resumes);
  M.counter(names::IngestCheckpoints).add(Checkpoints);
  M.counter(names::IngestCheckpointFailures).add(CheckpointFailures);
}
