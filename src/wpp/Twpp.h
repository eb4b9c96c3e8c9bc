//===- wpp/Twpp.h - Timestamped WPP representation --------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timestamped WPP (TWPP) representation and the full compaction
/// pipeline. A path trace in WPP form is a map timestamp -> dynamic basic
/// block; TWPP inverts it into block -> ordered timestamp set, the form
/// profile-limited data flow analysis consumes, and compacts the timestamp
/// sets into arithmetic series (paper Section 2).
///
/// Pipeline:  RawTrace --partitionWpp--> PartitionedWpp
///            --applyDbbCompaction--> DbbWpp
///            --convertToTwpp--> TwppWpp            (and inverses).
///
/// Both the DBB stage and the TWPP stage keep, per function, a pool of
/// deduplicated trace strings and a pool of deduplicated dictionaries; a
/// unique path trace is a (string, dictionary) pair — the paper's (t, d)
/// tuples (Figure 5: one trace string, two dictionaries).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_TWPP_H
#define TWPP_WPP_TWPP_H

#include "support/Parallel.h"
#include "wpp/Dbb.h"
#include "wpp/Partition.h"
#include "wpp/TimestampSet.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace twpp {

/// A path trace in timestamped form: for every dynamic basic block of the
/// compacted trace, the ordered set of time steps at which it ran.
struct TwppTrace {
  /// Number of time steps (length of the compacted block sequence).
  uint32_t Length = 0;
  /// (block, timestamps) pairs sorted by block id. Every timestamp in
  /// [1, Length] occurs in exactly one set.
  std::vector<std::pair<BlockId, TimestampSet>> Blocks;

  bool operator==(const TwppTrace &Other) const = default;

  /// Returns the timestamp set of \p Block, or nullptr when the block does
  /// not appear in this trace.
  const TimestampSet *timestampsOf(BlockId Block) const;
};

/// Converts a compacted block sequence (timestamp -> block) to TWPP form:
/// a counting sort of the timestamps by block, O(n) expected plus
/// sorting the distinct blocks.
TwppTrace twppFromBlockSequence(const std::vector<BlockId> &Sequence);

/// The same, building the sequence's dense index in \p Scratch: a caller
/// converting many sequences passes one scratch to all of them.
TwppTrace twppFromBlockSequence(const std::vector<BlockId> &Sequence,
                                DenseIndex &Scratch);

/// Inverse of twppFromBlockSequence. \returns false, leaving \p Sequence
/// empty, when the timestamp sets do not tile 1..Length (a timestamp that
/// is 0, past Length or in two sets, or one in no set).
bool blockSequenceFromTwpp(const TwppTrace &Trace,
                           std::vector<BlockId> &Sequence);

/// Per-function tables after DBB dictionary creation. Traces[i] gives the
/// (trace string, dictionary) pair of the i-th unique path trace, indexing
/// the deduplicated pools.
struct DbbFunctionTable {
  std::vector<std::vector<BlockId>> TraceStrings;
  std::vector<DbbDictionary> Dictionaries;
  std::vector<std::pair<uint32_t, uint32_t>> Traces;
  /// Calls per unique trace, parallel to Traces.
  std::vector<uint64_t> UseCounts;
  uint64_t CallCount = 0;

  bool operator==(const DbbFunctionTable &Other) const = default;
};

/// The WPP after DBB dictionary creation (paper Figure 5).
struct DbbWpp {
  DynamicCallGraph Dcg;
  std::vector<DbbFunctionTable> Functions;

  bool operator==(const DbbWpp &Other) const = default;
};

/// Per-function tables in compacted TWPP form.
struct TwppFunctionTable {
  std::vector<TwppTrace> TraceStrings;
  std::vector<DbbDictionary> Dictionaries;
  std::vector<std::pair<uint32_t, uint32_t>> Traces;
  std::vector<uint64_t> UseCounts;
  uint64_t CallCount = 0;

  bool operator==(const TwppFunctionTable &Other) const = default;
};

/// The fully compacted representation (paper Figure 7): DCG + per-function
/// TWPP trace strings and DBB dictionaries.
struct TwppWpp {
  DynamicCallGraph Dcg;
  std::vector<TwppFunctionTable> Functions;

  bool operator==(const TwppWpp &Other) const = default;
};

/// Stage 3: builds DBB dictionaries for every unique path trace and
/// re-deduplicates trace strings and dictionaries independently. Function
/// tables are independent (the paper's partitioning), so \p Config fans
/// them out one task per table; results are byte-identical to the serial
/// path for any job count.
DbbWpp applyDbbCompaction(const PartitionedWpp &Wpp,
                          const ParallelConfig &Config = {});

/// Stage 4+5: converts every compacted trace string to timestamped form
/// with series-compacted timestamp sets, one task per function table
/// under \p Config.
TwppWpp convertToTwpp(const DbbWpp &Wpp, const ParallelConfig &Config = {});

/// Inverse of convertToTwpp. \returns false when a trace's timestamp sets
/// do not tile 1..Length (only a crafted or corrupt archive holds one);
/// \p Untiled, when given, then receives that trace's function.
bool twppToDbb(const TwppWpp &Wpp, DbbWpp &Out, FunctionId *Untiled = nullptr);

/// Inverse of applyDbbCompaction (expands every (string, dictionary) pair).
PartitionedWpp dbbToPartitioned(const DbbWpp &Wpp);

/// Runs the whole pipeline serially: raw event stream to compacted TWPP.
/// Callers that fan out call the three stages with their own config.
TwppWpp compactWpp(const RawTrace &Trace);

/// Inverse of compactWpp: rebuilds the exact original event stream.
/// \returns false, as twppToDbb does, when a trace does not tile.
bool reconstructRawTrace(const TwppWpp &Wpp, RawTrace &Out,
                         FunctionId *Untiled = nullptr);

/// The same for a TWPP known to tile (one this process compacted or
/// verified); an untiled one yields an empty trace.
RawTrace reconstructRawTrace(const TwppWpp &Wpp);

/// Expands one unique path trace, trace string \p String under dictionary
/// \p Dict, to its raw block sequence in one pass: one search of the
/// chain heads per block (findChain's) gives each block its expansion,
/// each block's index is scattered into one slot per timestamp, \p Out is
/// sized exactly, and each slot's expansion is written with one copy.
/// \returns false when the sets do not tile 1..Length, exactly when
/// blockSequenceFromTwpp does.
bool expandPathTrace(const TwppTrace &String, const DbbDictionary &Dict,
                     PathTrace &Out);

/// Expands the unique path traces of one function back to raw block
/// sequences (the answer to the paper's per-function query), together with
/// their use counts.
struct FunctionPathTraces {
  std::vector<PathTrace> Traces;
  std::vector<uint64_t> UseCounts;
  uint64_t CallCount = 0;
};
/// \returns false, leaving \p Out empty, when a trace's timestamp sets do
/// not tile 1..Length.
bool expandFunctionTraces(const TwppFunctionTable &Table,
                          FunctionPathTraces &Out);

/// The same for a table known to tile; an untiled one yields no traces.
FunctionPathTraces expandFunctionTraces(const TwppFunctionTable &Table);

/// One function table in flat form, as the archive's function-block
/// walker decodes it: a handful of arrays in decode scratch instead of a
/// heap vector per timestamp set and per chain. Trace string S has length
/// Lengths[S] and the blocks Blocks[StringBlocks[S] .. StringBlocks[S+1]);
/// block K's timestamp set is Runs[BlockRuns[K] .. BlockRuns[K+1]).
/// Dictionary D holds chains DictChains[D] .. DictChains[D+1], and chain
/// C is ChainPool[ChainStart[C] .. ChainStart[C+1]). The pointers stay
/// valid until the scratch is reset.
struct FlatFunctionTable {
  uint64_t CallCount = 0;
  size_t StringCount = 0;
  const uint32_t *Lengths = nullptr;
  const size_t *StringBlocks = nullptr;
  const BlockId *Blocks = nullptr;
  const size_t *BlockRuns = nullptr;
  const SeriesRun *Runs = nullptr;
  size_t DictCount = 0;
  const size_t *DictChains = nullptr;
  const size_t *ChainStart = nullptr;
  const BlockId *ChainPool = nullptr;
  size_t TraceCount = 0;
  const std::pair<uint32_t, uint32_t> *Traces = nullptr;
  const uint64_t *UseCounts = nullptr;
};

/// expandFunctionTraces over the flat form, with every trace expanded as
/// expandPathTrace does. The slot and expansion arrays are allocated
/// once, for the longest trace.
bool expandFunctionTraces(const FlatFunctionTable &Table,
                          FunctionPathTraces &Out);

} // namespace twpp

#endif // TWPP_WPP_TWPP_H
