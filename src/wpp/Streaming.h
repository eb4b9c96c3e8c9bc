//===- wpp/Streaming.h - Online WPP compaction ------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online compaction: a TraceSink that performs partitioning and
/// redundant path trace elimination *while the program runs*, so the
/// instrumented process never materializes the raw event stream — the
/// deployment mode the paper's numbers presume (the uncompacted WPPs are
/// 100s of MB; what is written out is the compacted form). Memory is
/// bounded by the unique traces plus the DCG plus one open frame per
/// active call.
///
/// partitionWpp() is this sink fed from an in-memory trace, guaranteeing
/// the two paths can never diverge.
///
/// Durability: with a StreamingConfig naming a journal, the compactor
/// periodically serializes its complete state (unique-trace pool, DCG,
/// open-frame stack) into a CRC-framed checkpoint record (wpp/Journal.h),
/// and resumeFromJournal() rebuilds a compactor from the last valid
/// checkpoint after a crash. With a memory budget, exceeding it degrades
/// gracefully — the oldest open frame's block detail is dropped (and
/// counted in stream.degraded) instead of aborting the traced process.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_STREAMING_H
#define TWPP_WPP_STREAMING_H

#include "support/FileIO.h"
#include "wpp/Partition.h"
#include "wpp/Twpp.h"

#include <memory>

namespace twpp {

/// Durability knobs of the streaming compactor. Default-constructed it
/// journals nothing and never degrades — exactly the old behaviour.
struct StreamingConfig {
  /// Events (enter/block/exit) between journal checkpoints. 0 disables
  /// periodic checkpoints (checkpointNow() still works).
  uint64_t CheckpointInterval = 0;
  /// Checkpoint journal path (*.twppj). Empty disables journaling.
  std::string JournalPath;
  /// Soft cap on the bytes of degradable state (unique path traces plus
  /// open-frame detail), measured by the compactor's own ledger under the
  /// obs::deepSize model — the same figure trackedStateBytes() reports
  /// and the memory audits verify. 0 means unbounded. Exceeding it drops
  /// the oldest open frame's block detail instead of aborting.
  uint64_t MemoryBudgetBytes = 0;
};

/// TraceSink that folds events straight into the partitioned,
/// redundancy-eliminated representation.
class StreamingCompactor final : public TraceSink {
public:
  explicit StreamingCompactor(uint32_t FunctionCount);
  StreamingCompactor(uint32_t FunctionCount, const StreamingConfig &Config);
  ~StreamingCompactor() override;

  void onEnter(FunctionId F) override;
  void onBlock(BlockId B) override;
  void onExit() override;

  /// Applies the events [First, Last) in order, each exactly as the
  /// matching onEnter/onBlock/onExit call would, and skips the ones that
  /// call would reject: an Enter of a function id >= functionCount(), a
  /// Block or Exit with no open frame. Adds the applied events to
  /// \p Applied and the skipped ones to \p Dropped. When applying an
  /// event throws (say, std::bad_alloc), both counts cover exactly the
  /// events before it and the exception propagates.
  void onEvents(const TraceEvent *First, const TraceEvent *Last,
                uint64_t &Applied, uint64_t &Dropped);

  /// Number of calls currently open (the live frame stack depth).
  size_t openFrames() const;

  /// Number of functions this compactor partitions over.
  uint32_t functionCount() const;

  /// True when every call has exited (the stream is balanced).
  bool balanced() const { return openFrames() == 0; }

  /// Events consumed so far (enters + blocks + exits).
  uint64_t eventsConsumed() const;

  /// Checkpoints successfully appended to the journal.
  uint64_t checkpointsWritten() const;

  /// Open frames whose block detail was dropped under memory pressure.
  uint64_t degradedFrames() const;

  /// Live bytes of degradable state per the compactor's ledger — the
  /// figure MemoryBudgetBytes is enforced against (the obs::deepSize model of the
  /// unique-trace pool plus open-frame detail). Incrementally maintained
  /// and exactly recomputed by restoreState, so incremental vs from-scratch
  /// agreement is testable.
  uint64_t trackedStateBytes() const;

  /// The last journal IO failure (IoStatus::Ok when none). Journal
  /// failures degrade — they never abort the traced process.
  const IoError &lastJournalError() const;

  /// Serializes the complete compactor state (the journal checkpoint
  /// payload). Deterministic: equal states produce equal bytes.
  std::vector<uint8_t> snapshotState() const;

  /// Restores state from a snapshotState() payload. \returns false and
  /// leaves the compactor unchanged when the payload is malformed or its
  /// function count differs from this compactor's.
  bool restoreState(const std::vector<uint8_t> &Payload);

  /// Appends a checkpoint to the journal now. No-op success without an
  /// open journal.
  IoError checkpointNow();

  /// Rebuilds a compactor from the last valid checkpoint in
  /// \p JournalPath and reopens that journal for further appends (keeping
  /// existing records) per \p Config. \returns nullptr and sets \p Error
  /// when the journal is unreadable, holds no valid checkpoint, or the
  /// checkpoint payload is malformed.
  static std::unique_ptr<StreamingCompactor>
  resumeFromJournal(const std::string &JournalPath,
                    const StreamingConfig &Config, std::string *Error);

  /// Moves the partitioned WPP out. The stream must be balanced.
  PartitionedWpp takePartitioned();

  /// Convenience: runs the remaining pipeline stages (DBB + TWPP) on the
  /// partitioned result. The stream must be balanced. Once the stream has
  /// drained, the finished function tables fan out through parallelFor
  /// under \p Config; the result is byte-identical to the serial path for
  /// any job count.
  TwppWpp takeCompacted(const ParallelConfig &Config = {});

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace twpp

#endif // TWPP_WPP_STREAMING_H
