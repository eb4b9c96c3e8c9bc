//===- ingest/Ingest.h - Multi-producer ingestion frontend -----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ingestion frontend: accepts `twpp-wire-v1` trace event streams
/// (ingest/Wire.h) from N concurrent producers over sockets or pipes and
/// feeds per-producer StreamingCompactors, writing one verifier-clean
/// archive per producer on drain.
///
/// Pipeline per connection:
///
///   fd --read--> FrameDecoder --resync--> SequenceTracker --in order-->
///     bounded queue --dispatcher--> StreamingCompactor --drain-->
///       takeCompacted --> <out>.p<ID>.twppa
///
/// Robustness is the contract, not a feature: every wire-level failure
/// (corrupt/truncated frames, duplicates, reordering, stalls, idle or
/// vanished producers, full queues, memory pressure, journal IO errors)
/// degrades into typed, counted outcomes — never a crash, a hang, or a
/// silent drop. A run either ends losslessly (archives byte-identical to
/// an in-process compaction of the same streams) or reports exactly what
/// was lost through the ingest.* counters and the per-producer report.
///
/// Sequencing: frames carry per-producer sequence numbers. Out-of-order
/// frames are buffered in a bounded reorder window and released in
/// order; frames below the cursor are duplicates (dropped, counted);
/// when the window overflows or the stream ends, missing sequence
/// numbers are declared gaps (counted — and surfaced as data loss since
/// the Bye frame's declared event total can no longer be met).
///
/// Durability: with a journal prefix, each producer's compactor state
/// (plus its sequencing cursor) is checkpointed through wpp/Journal
/// every CheckpointIntervalFrames frames. A SIGKILL'd ingestor restarted
/// with Resume=true scans each producer's journal on first contact,
/// restores the last checkpoint, and relies on sequence tracking to
/// discard the re-sent prefix — producing archives byte-identical to an
/// uninterrupted run. docs/INGEST.md documents the full design.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_INGEST_INGEST_H
#define TWPP_INGEST_INGEST_H

#include "ingest/Producer.h"
#include "support/FileIO.h"
#include "support/Parallel.h"
#include "trace/Events.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace twpp::ingest {

/// What a reader does when the bounded queue is full.
enum class BackpressurePolicy : uint8_t {
  Block, ///< Wait: the socket buffer fills and the producer slows down.
  Shed,  ///< Drop the frame, count it, keep reading (lossy, accounted).
};

/// Everything the ingestion frontend can be told.
struct IngestConfig {
  /// Archives are written to "<OutPrefix>.p<ID>.twppa". Empty skips the
  /// archive write (the report still carries all accounting).
  std::string OutPrefix;
  /// Journals live at "<JournalPrefix>.p<ID>.twppj". Empty disables
  /// checkpointing and resume.
  std::string JournalPrefix;
  /// In-order frames applied between checkpoints (per producer).
  /// 0 disables periodic checkpoints even with a journal prefix.
  uint64_t CheckpointIntervalFrames = 64;
  /// Per-producer degradable-state budget (wpp/Streaming.h semantics:
  /// exceeding it drops the oldest open frame's block detail). 0 =
  /// unbounded.
  uint64_t MemoryBudgetBytes = 0;
  /// Bounded queue capacity between readers and the dispatcher, in
  /// frames.
  size_t QueueCapacity = 1024;
  BackpressurePolicy Policy = BackpressurePolicy::Block;
  /// Out-of-order frames buffered per producer before the hole is
  /// declared a gap.
  size_t ReorderWindow = 16;
  /// A connection with no bytes for this long is closed (counted as an
  /// idle timeout; its producers end unclean unless already Bye'd).
  unsigned IdleTimeoutMs = 10000;
  /// Job count for the per-function compaction stages on drain.
  ParallelConfig Parallel;
  /// Scan "<JournalPrefix>.p<ID>.twppj" on first contact with producer
  /// ID and resume from its last valid checkpoint.
  bool Resume = false;
  /// Crash drill for durability tests and `twpp ingest
  /// --crash-after-checkpoints`: once this many checkpoint records have
  /// been appended (across producers), CrashHook runs on the dispatcher
  /// thread (e.g. raise(SIGKILL)); if it returns, ingestion stops without
  /// finalizing, as a crash would. 0 disables the drill.
  uint64_t CrashAfterCheckpoints = 0;
  std::function<void()> CrashHook;
};

/// The durable slice of one producer's accounting: what the dispatcher
/// keeps, what each checkpoint record carries besides the compactor
/// snapshot, and the first fields of the producer's report.
struct ProducerLedger {
  uint32_t FunctionCount = 0;
  bool SawHello = false;
  bool SawBye = false;
  uint64_t NextSeq = 0;          ///< Sequence the dispatcher expects next.
  uint64_t FramesApplied = 0;    ///< In-order frames consumed (incl. replays skipped).
  uint64_t EventsApplied = 0;    ///< Events folded into the compactor.
  uint64_t EventsDropped = 0;    ///< Events rejected by structural guards.
  uint64_t EventsDeclared = 0;   ///< Bye frame's total (0 until SawBye).
  uint64_t FramesInvalid = 0;    ///< CRC-valid but undecodable payloads.
  uint64_t SeqGaps = 0;          ///< Sequence numbers never delivered.
  uint64_t CheckpointsWritten = 0;
};

/// Per-producer accounting. Every field is a fact about what happened;
/// lossless() is the contract check CI leans on.
struct ProducerReport : ProducerLedger {
  uint32_t ProducerId = 0;
  bool Resumed = false;
  uint64_t FramesDuplicate = 0;  ///< Below-cursor or in-window repeats.
  uint64_t FramesReordered = 0;  ///< Arrived early, windowed back in order.
  uint64_t FramesReplayed = 0;   ///< Pre-checkpoint frames re-sent after resume.
  uint64_t ShedFrames = 0;       ///< Dropped by the Shed backpressure policy.
  uint64_t ShedBytes = 0;
  uint64_t SynthesizedExits = 0; ///< Exits injected to balance the stream.
  uint64_t DegradedFrames = 0;   ///< Open frames degraded under memory budget.
  uint64_t CheckpointFailures = 0;
  bool Disconnected = false;     ///< Stream ended without a Bye.
  std::string ArchivePath;       ///< Empty when no archive was requested.
  IoError ArchiveError;          ///< Why the archive write failed, if it did.

  /// Declared-but-never-applied events (0 until the Bye arrived; shed
  /// and gap losses surface here because their events never applied).
  uint64_t eventsLost() const {
    uint64_t Accounted = EventsApplied + EventsDropped;
    return EventsDeclared > Accounted ? EventsDeclared - Accounted : 0;
  }

  /// True when every event the producer declared made it into the
  /// archive at full detail: complete handshake, no gaps, no sheds, no
  /// invalid or dropped data, no memory-budget degradation, declared ==
  /// applied, archive written (when asked).
  bool lossless() const {
    return SawHello && SawBye && !Disconnected && SeqGaps == 0 &&
           FramesInvalid == 0 && EventsDropped == 0 && ShedFrames == 0 &&
           SynthesizedExits == 0 && DegradedFrames == 0 &&
           EventsApplied == EventsDeclared && ArchiveError.ok();
  }
};

/// Whole-run accounting.
struct IngestReport {
  std::vector<ProducerReport> Producers; ///< Sorted by ProducerId.
  uint64_t Frames = 0;       ///< Valid frames decoded across connections.
  uint64_t FrameBytes = 0;
  uint64_t CorruptFrames = 0;///< CRC-failed plausible headers.
  uint64_t ResyncBytes = 0;  ///< Bytes skipped scanning for a magic.
  uint64_t ReadRetries = 0;
  uint64_t IdleTimeouts = 0;
  uint64_t BackpressureWaits = 0;
  uint64_t QueueDepthPeak = 0;
  uint64_t EventsApplied = 0;
  double ElapsedUs = 0;
  bool Aborted = false;      ///< Stopped by the crash hook before drain.
  std::string FatalError;    ///< Non-empty only for setup failures
                             ///< (bad socket path, listen failure).

  /// The degrade-never-abort contract's success arm: every producer
  /// lossless and no fatal setup error.
  bool clean() const {
    if (!FatalError.empty() || Aborted)
      return false;
    for (const ProducerReport &P : Producers)
      if (!P.lossless())
        return false;
    return true;
  }
};

/// The ingestion frontend. Typical use:
///
///   IngestServer Server(Config);
///   Server.addConnection(Fd1);       // or listenUnixSocket(...)
///   Server.addConnection(Fd2);
///   IngestReport Report = Server.run();
///
/// run() spawns one reader thread per connection plus a dispatcher,
/// consumes every stream to EOF (or idle timeout), drains the queue,
/// compacts each producer and writes the archives. The server owns the
/// fds.
class IngestServer {
public:
  explicit IngestServer(const IngestConfig &Config);
  ~IngestServer();
  IngestServer(const IngestServer &) = delete;
  IngestServer &operator=(const IngestServer &) = delete;

  /// Adds a connected producer fd (socket or pipe read end).
  void addConnection(int Fd);

  /// Binds a Unix listening socket at \p Path (replacing any stale
  /// file) and accepts exactly \p Expect connections, each waiting at
  /// most the idle timeout. \returns false with \p Error on failure.
  bool listenUnixSocket(const std::string &Path, size_t Expect,
                        std::string *Error);

  /// Ingests everything and finalizes. Call once.
  IngestReport run();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Loopback harness shared by tests, the throughput bench and
/// `twpp ingest replay`: one socketpair + producer thread per trace
/// (producer id = index), all feeding one IngestServer in this process.
IngestReport runLoopbackIngest(const IngestConfig &Config,
                               const std::vector<RawTrace> &Traces,
                               const ProducerOptions &BaseOptions = {});

/// Publishes \p Report into the ingest.* counters/gauges of the metrics
/// registry (obs/Names.h). Called by the CLI and bench after run() so
/// exports are one-shot and deterministic.
void publishIngestMetrics(const IngestReport &Report);

} // namespace twpp::ingest

#endif // TWPP_INGEST_INGEST_H
