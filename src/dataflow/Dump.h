//===- dataflow/Dump.h - Human-readable / graphviz dumps -------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Debug/visualization output: Graphviz dot renderings of the dynamic
/// call graph and of timestamp-annotated dynamic CFGs, and a textual
/// summary of a compacted WPP. Used by the twpp CLI's stats and dot verbs
/// and handy when debugging compaction issues.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_DATAFLOW_DUMP_H
#define TWPP_DATAFLOW_DUMP_H

#include "dataflow/AnnotatedCfg.h"
#include "wpp/Twpp.h"

#include <string>

namespace twpp {

/// Dot rendering of the DCG. Subtrees beyond \p MaxNodes are elided with
/// a count placeholder so large graphs stay viewable.
std::string dumpDcgDot(const DynamicCallGraph &Dcg, size_t MaxNodes = 200);

/// Dot rendering of an annotated dynamic CFG: nodes show the DBB head,
/// its static block expansion and the compacted timestamp series.
std::string dumpAnnotatedCfgDot(const AnnotatedDynamicCfg &Cfg,
                                const std::string &Title = "trace");

/// Multi-line textual summary of a compacted WPP (per-function unique
/// trace counts, call counts, sizes).
std::string dumpSummary(const TwppWpp &Wpp);

} // namespace twpp

#endif // TWPP_DATAFLOW_DUMP_H
