//===- tests/HbegFixtures.h - Crafted HBEG sections -------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for hand-written HBEG payloads (docs/FORMATS.md: a run count,
/// then per run kind, from thread, to thread, from time, to time, count,
/// and for a count of two or more the zigzag index, from and to steps)
/// and THRD payloads, spliced into a healthy thread-aware archive.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_HBEGFIXTURES_H
#define TWPP_TESTS_HBEGFIXTURES_H

#include "support/ByteStream.h"
#include "workloads/Concurrent.h"
#include "wpp/Archive.h"
#include "wpp/Concurrent.h"

#include <cstdint>
#include <vector>

namespace twpp::fixtures {

/// One HBEG run record; a count below two writes no steps.
struct HbegRun {
  uint64_t Kind = 0;
  uint64_t FromThread = 0;
  uint64_t ToThread = 1;
  uint64_t FromTime = 0;
  uint64_t ToTime = 0;
  uint64_t Count = 1;
  int64_t IndexStep = 0;
  int64_t FromStep = 0;
  int64_t ToStep = 0;
};

/// An HBEG payload holding \p Runs.
inline std::vector<uint8_t> hbegPayload(const std::vector<HbegRun> &Runs) {
  ByteWriter Writer;
  Writer.writeVarUint(Runs.size());
  for (const HbegRun &R : Runs) {
    for (uint64_t Field :
         {R.Kind, R.FromThread, R.ToThread, R.FromTime, R.ToTime, R.Count})
      Writer.writeVarUint(Field);
    if (R.Count >= 2)
      for (int64_t Step : {R.IndexStep, R.FromStep, R.ToStep})
        Writer.writeVarInt(Step);
  }
  return Writer.take();
}

/// A THRD payload of \p ThreadCount threads over \p FunctionCount
/// functions: thread I has id I and no blocks.
inline std::vector<uint8_t> thrdPayload(uint64_t ThreadCount,
                                        uint64_t FunctionCount) {
  ByteWriter Writer;
  Writer.writeVarUint(ThreadCount);
  Writer.writeVarUint(FunctionCount);
  for (uint64_t I = 0; I != ThreadCount; ++I) {
    Writer.writeVarUint(I);
    Writer.writeVarUint(0);
  }
  return Writer.take();
}

/// The contended test profile as thread-aware archive bytes.
inline std::vector<uint8_t> contendedArchiveBytes() {
  return encodeConcurrentArchive(
      compactConcurrentWpp(generateConcurrentTrace(testConcurrentProfiles()[0])));
}

/// \p Archive with the payload of its \p Tag section replaced by
/// \p Payload (the record length is rewritten; every other byte is kept).
/// \p At receives the payload's file offset, which does not move.
inline std::vector<uint8_t>
withSectionPayload(const std::vector<uint8_t> &Archive, uint32_t Tag,
                   const std::vector<uint8_t> &Payload, uint64_t &At) {
  ArchiveLayout Layout;
  decodeArchiveLayout(ByteSpan(Archive), Layout);
  const ArchiveLayout::Section *Sec = Layout.findSection(Tag);
  At = Sec->Offset;
  ByteWriter Writer;
  Writer.writeBytes(Archive.data(), Sec->Offset - 8); // through the tag
  Writer.writeFixed64(Payload.size());
  Writer.writeBytes(Payload.data(), Payload.size());
  const uint64_t End = Sec->Offset + Sec->Length;
  Writer.writeBytes(Archive.data() + End, Archive.size() - End);
  return Writer.take();
}

} // namespace twpp::fixtures

#endif // TWPP_TESTS_HBEGFIXTURES_H
