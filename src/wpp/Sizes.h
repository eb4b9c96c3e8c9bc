//===- wpp/Sizes.h - Size accounting for the compaction study ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialized-size accounting for every stage of the pipeline, measured
/// with the same varint encoders the on-disk formats use. These numbers
/// feed Tables 1, 2 and 3 of the paper:
///
///   Table 1: DCG size, WPP trace size, total (the original WPP).
///   Table 2: trace size after redundancy removal, after dictionary
///            creation, in compacted TWPP form; per-stage factors.
///   Table 3: compacted DCG + TWPP traces + dictionaries; overall factor.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_SIZES_H
#define TWPP_WPP_SIZES_H

#include "wpp/Twpp.h"

#include <cstdint>

namespace twpp {

/// Number of bytes the unsigned LEB128 encoding of \p Value occupies.
inline uint64_t varintSize(uint64_t Value) {
  uint64_t Size = 1;
  while (Value >= 0x80) {
    Value >>= 7;
    ++Size;
  }
  return Size;
}

/// Varint size of a zigzag-coded signed value.
uint64_t signedVarintSize(int64_t Value);

/// Serialized size of one raw path trace (length prefix + block varints).
uint64_t pathTraceBytes(const PathTrace &Trace);

/// Serialized size of one DBB dictionary.
uint64_t dictionaryBytes(const DbbDictionary &Dict);

/// Serialized size of one TWPP trace string (sign-encoded series as
/// varints).
uint64_t twppTraceBytes(const TwppTrace &Trace);

/// Trace bytes of the partitioned WPP: every call's path trace with
/// duplicates kept (the OWPP baseline), and the deduplicated pool (after
/// redundant trace removal).
struct PartitionTraceBytes {
  uint64_t Owpp = 0;
  uint64_t Deduped = 0;
};
PartitionTraceBytes partitionTraceBytes(const PartitionedWpp &Wpp);

/// Bytes of the dictionary-compacted trace strings (dictionaries apart).
uint64_t dbbTraceBytes(const DbbWpp &Wpp);

/// Bytes of the TWPP-form trace strings.
uint64_t twppTraceBytes(const TwppWpp &Wpp);

/// Sizes of the original (uncompacted) WPP, split as Table 1 reports them.
struct OwppSizes {
  uint64_t DcgBytes = 0;    ///< Serialized DCG, uncompressed.
  uint64_t TraceBytes = 0;  ///< Every call's path trace, duplicates kept.
  uint64_t totalBytes() const { return DcgBytes + TraceBytes; }
};
OwppSizes measureOwpp(const PartitionedWpp &Wpp);

/// Per-stage trace sizes for Table 2.
struct StageSizes {
  uint64_t OwppTraceBytes = 0;      ///< Duplicates kept (baseline).
  uint64_t DedupedTraceBytes = 0;   ///< After redundant trace removal.
  uint64_t DbbTraceBytes = 0;       ///< Compacted trace strings only.
  uint64_t TwppTraceBytes = 0;      ///< TWPP-form trace strings only.
  uint64_t DictionaryBytes = 0;     ///< DBB dictionaries (Table 3 column).
  uint64_t CompactedDcgBytes = 0;   ///< LZW-compressed DCG (Table 3).
};

/// Measures every stage in one pass (runs the remaining pipeline stages on
/// copies as needed).
StageSizes measureStages(const PartitionedWpp &Partitioned,
                         const DbbWpp &Dbb, const TwppWpp &Twpp);

} // namespace twpp

#endif // TWPP_WPP_SIZES_H
