//===- dataflow/Query.h - Demand-driven GEN-KILL queries --------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demand-driven, profile-limited backward propagation of GEN-KILL data
/// flow queries (paper Section 4.2). A query <T, n>_d asks, for every
/// timestamp in T, whether fact d holds immediately *before* that
/// execution of node n. Propagation shifts the whole timestamp vector by
/// -1 per backward step (one series update), intersects with each
/// predecessor's timestamp annotation, resolves slots against the
/// predecessor's dynamic GEN/KILL effect, and keeps propagating the rest.
/// Timestamps that fall off the front of the trace reach the function
/// entry unresolved and are reported as such (callers usually treat them
/// as "fact does not hold").
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_DATAFLOW_QUERY_H
#define TWPP_DATAFLOW_QUERY_H

#include "dataflow/AnnotatedCfg.h"

#include <functional>

namespace twpp {

/// Effect of one static block on the fact being queried.
enum class BlockEffect : uint8_t {
  Transparent, ///< Neither generates nor kills.
  Gen,         ///< Generates the fact (it holds after the block).
  Kill,        ///< Kills the fact.
};

/// Client-provided static effect of a block on the queried fact. Dynamic
/// basic blocks combine the effects of their member static blocks.
using EffectFn = std::function<BlockEffect(BlockId)>;

/// Answer to a profile-limited query.
struct QueryResult {
  TimestampSet True;      ///< Instances where the fact holds before n.
  TimestampSet False;     ///< Instances where it was killed on the way.
  TimestampSet AtEntry;   ///< Instances that reached the function entry
                          ///< unresolved.
  uint64_t QueriesGenerated = 0; ///< <T, n> pairs created (paper Fig. 9
                                 ///< reports this).
};

/// Net effect of a DBB (chain of static blocks) on the fact, as seen by a
/// query arriving *after* the chain ran: the last non-transparent member
/// wins.
BlockEffect chainEffect(const std::vector<BlockId> &StaticBlocks,
                        const EffectFn &Effect);

/// Propagates the query <\p Times, node \p NodeIndex>_d backwards through
/// \p Cfg. \p Times must be a subset of the node's timestamp annotation.
/// An empty \p Times or a \p NodeIndex past the last node yields an empty
/// result with no queries generated.
/// An empty \p Times or a \p NodeIndex past the last node yields an empty
/// result with no queries generated.
QueryResult propagateBackward(const AnnotatedDynamicCfg &Cfg,
                              size_t NodeIndex, const TimestampSet &Times,
                              const EffectFn &Effect);

/// The paper's frequency form: how often does the fact hold before n over
/// all of n's executions (answers "degree of redundancy" style questions).
struct FactFrequency {
  uint64_t Holds = 0;
  uint64_t Total = 0;
  uint64_t QueriesGenerated = 0;
  double ratio() const {
    return Total == 0 ? 0.0 : static_cast<double>(Holds) / Total;
  }
};
FactFrequency factFrequency(const AnnotatedDynamicCfg &Cfg, BlockId Node,
                            const EffectFn &Effect);

} // namespace twpp

#endif // TWPP_DATAFLOW_QUERY_H
