//===- wpp/Partition.cpp - WPP partitioning + redundancy removal ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Partition.h"

#include "obs/PhaseSpan.h"
#include "wpp/Streaming.h"

#include <cassert>

using namespace twpp;

PartitionedWpp twpp::partitionWpp(const RawTrace &Trace) {
  obs::PhaseSpan Span("partition");
  assert(Trace.isWellFormed() && "partitionWpp requires a well-formed WPP");
  // One implementation for both modes: the offline path replays the
  // event stream into the online compactor.
  StreamingCompactor Sink(Trace.FunctionCount);
  uint64_t Applied = 0, Dropped = 0;
  const TraceEvent *Events = Trace.Events.data();
  Sink.onEvents(Events, Events + Trace.Events.size(), Applied, Dropped);
  assert(Dropped == 0 && "well-formed traces drop no event");
  return Sink.takePartitioned();
}

namespace {

/// Replays one DCG node (and its subtree) into \p Events.
void replayNode(const PartitionedWpp &Wpp, uint32_t NodeIndex,
                std::vector<TraceEvent> &Events) {
  const DcgNode &Node = Wpp.Dcg.Nodes[NodeIndex];
  const PathTrace &Blocks =
      Wpp.Functions[Node.Function].UniqueTraces[Node.TraceIndex];
  Events.push_back(TraceEvent::enter(Node.Function));

  size_t Child = 0;
  // Calls anchored before any block event.
  while (Child < Node.Children.size() && Node.Anchors[Child] == 0)
    replayNode(Wpp, Node.Children[Child++], Events);
  for (size_t B = 0; B < Blocks.size(); ++B) {
    Events.push_back(TraceEvent::block(Blocks[B]));
    while (Child < Node.Children.size() && Node.Anchors[Child] == B + 1)
      replayNode(Wpp, Node.Children[Child++], Events);
  }
  assert(Child == Node.Children.size() && "call anchored past trace end");
  Events.push_back(TraceEvent::exit());
}

} // namespace

RawTrace twpp::reconstructRawTrace(const PartitionedWpp &Wpp) {
  RawTrace Trace;
  Trace.FunctionCount = static_cast<uint32_t>(Wpp.Functions.size());
  for (uint32_t Root : Wpp.Dcg.Roots)
    replayNode(Wpp, Root, Trace.Events);
  return Trace;
}
