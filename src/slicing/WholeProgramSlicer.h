//===- slicing/WholeProgramSlicer.h - Interprocedural slicing --*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural extension the paper sketches in Section 4.2
/// ("analyzing path traces of multiple functions in concert and
/// propagating queries along interprocedural paths"), applied to dynamic
/// slicing: exact-instance (approach 3 style) backward slicing over the
/// whole execution.
///
/// The global timeline interleaves every function's statement instances
/// with their frame (invocation) identity. Definition searches stay
/// within a frame — variables are frame-local — and cross frames only
/// through the explicit value channels:
///
///   * a call result's value comes from the callee's return instance;
///   * a parameter's value comes from the caller's argument expression
///     at the linked call instance (argument variables are queried at
///     call-site granularity — the node's merged use set — a deliberate,
///     slightly conservative simplification).
///
/// Control dependences are intraprocedural per frame, as in the paper's
/// single-function algorithms.
///
/// Each query is a timestamp lookup (Sections 4.2–4.3): the last
/// definition of V before t is the largest element below t of the
/// ordered set of V's defining instances. build() keeps such sets per
/// frame — for each defined variable and for each node — flat, as
/// per-frame slot offsets into one sorted array, so a query costs
/// O(log k) for the k definitions (or runs) of its key in the frame.
/// The linear backward scan it replaces is the test oracle
/// (tests/WholeProgramSliceOracle.h).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SLICING_WHOLEPROGRAMSLICER_H
#define TWPP_SLICING_WHOLEPROGRAMSLICER_H

#include "ir/Ir.h"
#include "slicing/IrSliceBridge.h"
#include "trace/Events.h"

#include <compare>
#include <cstdint>
#include <vector>

namespace twpp {

/// A statement of some function, for reporting slices.
struct GlobalNode {
  FunctionId Function;
  BlockId Node; ///< Slice node id within that function's bridge.

  auto operator<=>(const GlobalNode &Other) const = default;
};

/// The whole execution, instance by instance, with call linkage and
/// per-frame timestamp indexes.
class WholeProgramTrace {
public:
  struct Instance {
    uint32_t Frame;
    FunctionId Function;
    BlockId Node;             ///< Bridge slice node id.
    int64_t CalleeFrame = -1; ///< For Call instances: frame it created.
  };
  struct FrameInfo {
    FunctionId Function;
    int64_t CallerInstance = -1; ///< Instance index of the creating call.
    int64_t ReturnInstance = -1; ///< Instance of the frame's return node.
  };

  /// Builds the timeline from a raw trace of \p M. Bridges are built per
  /// function internally. Block and Exit events outside any frame, and
  /// blocks the function does not have, are skipped.
  static WholeProgramTrace build(const Module &M, const RawTrace &Trace);

  const std::vector<Instance> &instances() const { return Instances; }
  const std::vector<FrameInfo> &frames() const { return Frames; }
  const IrSliceProgram &bridgeOf(FunctionId F) const { return Bridges[F]; }

  /// The last instance before instance \p At in its frame that defines
  /// \p Var (runs node \p Node), or -1. \p At must index instances().
  int64_t lastDefBefore(size_t At, VarId Var) const;
  int64_t lastRunBefore(size_t At, BlockId Node) const {
    return Runs.lastBefore(Instances[At].Frame, Node - 1, At);
  }

private:
  /// Ascending instance indices grouped by (frame, slot), where a
  /// frame has one slot per node of its function and SlotOf maps an
  /// instance to one of them (NoVar for none): slot S of frame F holds
  /// Postings[PostingsOf[B], PostingsOf[B + 1]) for B = SlotsOf[F] + S.
  struct TimestampIndex {
    std::vector<uint32_t> SlotsOf, PostingsOf, Postings;
    TimestampIndex() = default;
    template <typename SlotFn>
    TimestampIndex(const WholeProgramTrace &Trace, SlotFn SlotOf);
    int64_t lastBefore(uint32_t Frame, uint32_t Slot, size_t At) const;
  };

  std::vector<Instance> Instances;
  std::vector<FrameInfo> Frames;
  std::vector<IrSliceProgram> Bridges;
  std::vector<std::vector<VarId>> DefVars; ///< Per function, sorted.
  TimestampIndex Defs; ///< Slot: the defined variable's place in DefVars.
  TimestampIndex Runs; ///< Slot: the node id less 1.
};

/// An interprocedural dynamic slice.
struct GlobalSliceResult {
  std::vector<GlobalNode> Nodes; ///< Sorted.
  uint64_t QueriesGenerated = 0;

  bool contains(GlobalNode Node) const;
};

/// Exact-instance backward slice of variable \p Var at instance
/// \p InstanceIndex of the timeline; empty when the index is out of
/// range.
GlobalSliceResult sliceWholeProgram(const WholeProgramTrace &Trace,
                                    const Module &M, size_t InstanceIndex,
                                    VarId Var);

} // namespace twpp

#endif // TWPP_SLICING_WHOLEPROGRAMSLICER_H
