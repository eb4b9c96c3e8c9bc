//===- slicing/IrSliceBridge.h - Slice programs from the mini IR -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges an ir::Function to the statement-level model the dynamic
/// slicers operate on: every statement (and every conditional
/// terminator) becomes one slice node, control dependences are computed
/// from the statement CFG, and the tracer's block-level path trace is
/// expanded into the statement-level trace. With this, any traced
/// mini-language program can be sliced — the Figure 10 example stops
/// being a special case.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SLICING_IRSLICEBRIDGE_H
#define TWPP_SLICING_IRSLICEBRIDGE_H

#include "ir/Ir.h"
#include "slicing/SliceProgram.h"

#include <vector>

namespace twpp {

/// A SliceProgram derived from one function, with the mapping needed to
/// translate block-level traces and user-facing positions.
struct IrSliceProgram {
  /// What a slice node came from; the interprocedural slicer needs to
  /// know calls and returns.
  enum class NodeKind : uint8_t { Plain, Call, Return, Predicate };

  SliceProgram Program;
  /// Kind of each slice node, parallel to Program.Stmts.
  std::vector<NodeKind> Kinds;
  /// Slice node ids of each block's statements, in order; the last entry
  /// of a block with a conditional terminator is its predicate node.
  std::vector<std::vector<BlockId>> NodesOfBlock; ///< Indexed by block-1.

  /// Expands a block-level path trace into the statement-level trace the
  /// slicers consume.
  std::vector<BlockId>
  expandTrace(const std::vector<BlockId> &BlockTrace) const;
};

/// Builds the statement-level slice program of \p F. Statements get their
/// defs/uses from the IR (call results define, call arguments use);
/// conditional terminators become predicate nodes; `read` defines its
/// target; `print` and return values only use. Control dependences are
/// computed via postdominators.
IrSliceProgram buildSliceProgram(const Function &F);

} // namespace twpp

#endif // TWPP_SLICING_IRSLICEBRIDGE_H
