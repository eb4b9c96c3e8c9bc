//===- support/ByteStream.h - Binary encode/decode helpers ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Growable byte buffer writer and bounds-checked reader with LEB128-style
/// variable-length integer and zigzag codecs. Every on-disk structure in the
/// library (traces, archives, grammars) is built on these primitives.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_BYTESTREAM_H
#define TWPP_SUPPORT_BYTESTREAM_H

#include "support/Varint.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace twpp {

/// A non-owning view of immutable bytes — the currency of the zero-copy
/// read path. An ArchiveReader hands decoders ByteSpans pointing straight
/// into the mapping, or into its whole-file buffer when the file could not
/// be mapped. Either way the decoders never copy again.
struct ByteSpan {
  const uint8_t *Data = nullptr;
  size_t Size = 0;

  ByteSpan() = default;
  ByteSpan(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteSpan(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }
  const uint8_t *begin() const { return Data; }
  const uint8_t *end() const { return Data + Size; }

  /// True when [Offset, Offset+Length) lies inside the span (overflow-safe).
  bool covers(uint64_t Offset, uint64_t Length) const {
    return Offset <= Size && Length <= Size - Offset;
  }

  /// Bounds-checked slice; \returns an empty span when the extent runs out
  /// of range, so a corrupt offset can never manufacture a wild pointer.
  ByteSpan subspan(uint64_t Offset, uint64_t Length) const {
    if (!covers(Offset, Length))
      return ByteSpan();
    return ByteSpan(Data + Offset, static_cast<size_t>(Length));
  }
};

/// Maps signed integers onto unsigned ones so small magnitudes stay small
/// when varint-encoded (-1 -> 1, 1 -> 2, -2 -> 3, ...).
inline uint64_t zigzagEncode(int64_t Value) {
  return (static_cast<uint64_t>(Value) << 1) ^
         static_cast<uint64_t>(Value >> 63);
}

/// Inverse of zigzagEncode.
inline int64_t zigzagDecode(uint64_t Value) {
  return static_cast<int64_t>(Value >> 1) ^ -static_cast<int64_t>(Value & 1);
}

/// Reads a little-endian fixed-width value at \p Pos (caller checks
/// bounds).
inline uint32_t le32At(const std::vector<uint8_t> &Bytes, size_t Pos) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Bytes[Pos + I]) << (8 * I);
  return V;
}

inline uint64_t le64At(const std::vector<uint8_t> &Bytes, size_t Pos) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Bytes[Pos + I]) << (8 * I);
  return V;
}

/// Append-only binary writer over a growable byte vector.
class ByteWriter {
public:
  /// Appends one raw byte.
  void writeByte(uint8_t Byte) { Bytes.push_back(Byte); }

  /// Appends \p Size raw bytes from \p Data.
  void writeBytes(const void *Data, size_t Size) {
    const uint8_t *Ptr = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), Ptr, Ptr + Size);
  }

  /// Appends an unsigned LEB128-encoded integer (1-10 bytes).
  void writeVarUint(uint64_t Value) {
    while (Value >= 0x80) {
      Bytes.push_back(static_cast<uint8_t>(Value) | 0x80);
      Value >>= 7;
    }
    Bytes.push_back(static_cast<uint8_t>(Value));
  }

  /// Appends a zigzag + LEB128 encoded signed integer.
  void writeVarInt(int64_t Value) { writeVarUint(zigzagEncode(Value)); }

  /// Appends a length-prefixed string.
  void writeString(const std::string &Str) {
    writeVarUint(Str.size());
    writeBytes(Str.data(), Str.size());
  }

  /// Appends a fixed-width little-endian 32-bit value (used where a field
  /// must be patched after the fact, e.g. archive offsets).
  void writeFixed32(uint32_t Value) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(Value >> (8 * I)));
  }

  /// Appends a fixed-width little-endian 64-bit value.
  void writeFixed64(uint64_t Value) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(Value >> (8 * I)));
  }

  /// Overwrites a previously written fixed-width 64-bit value at \p Offset.
  void patchFixed64(size_t Offset, uint64_t Value) {
    assert(Offset + 8 <= Bytes.size() && "patch out of range");
    for (int I = 0; I < 8; ++I)
      Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
  }

  size_t size() const { return Bytes.size(); }
  bool empty() const { return Bytes.empty(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// Moves the accumulated buffer out of the writer.
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader over an immutable byte span. Out-of-range reads
/// latch an error flag instead of invoking undefined behaviour; callers
/// check hasError() (or valid()) once per logical structure.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}
  explicit ByteReader(ByteSpan Span) : Data(Span.Data), Size(Span.Size) {}

  /// Reads one raw byte; returns 0 and sets the error flag when exhausted.
  uint8_t readByte() {
    if (Pos >= Size) {
      Error = true;
      return 0;
    }
    return Data[Pos++];
  }

  /// Reads \p OutSize raw bytes into \p Out.
  void readBytes(void *Out, size_t OutSize) {
    if (Pos + OutSize > Size) {
      Error = true;
      std::memset(Out, 0, OutSize);
      return;
    }
    std::memcpy(Out, Data + Pos, OutSize);
    Pos += OutSize;
  }

  /// Reads an unsigned LEB128-encoded integer. Decodes through the SWAR
  /// fast path (support/Varint.h); VarintFuzzTest pins its semantics to
  /// the scalar reference this method used to inline.
  uint64_t readVarUint() {
    uint64_t Value = 0;
    size_t Len = varint::decodeVarUintSwar(Data + Pos, Data + Size, Value);
    if (Len == 0) {
      Error = true;
      return 0;
    }
    Pos += Len;
    return Value;
  }

  /// Reads a zigzag + LEB128 encoded signed integer.
  int64_t readVarInt() { return zigzagDecode(readVarUint()); }

  /// Reads a length-prefixed string.
  std::string readString() {
    uint64_t Len = readVarUint();
    if (Pos + Len > Size) {
      Error = true;
      return std::string();
    }
    std::string Result(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return Result;
  }

  /// Reads a fixed-width little-endian 32-bit value.
  uint32_t readFixed32() {
    uint32_t Result = 0;
    if (Pos + 4 > Size) {
      Error = true;
      return 0;
    }
    for (int I = 0; I < 4; ++I)
      Result |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return Result;
  }

  /// Reads a fixed-width little-endian 64-bit value.
  uint64_t readFixed64() {
    uint64_t Result = 0;
    if (Pos + 8 > Size) {
      Error = true;
      return 0;
    }
    for (int I = 0; I < 8; ++I)
      Result |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return Result;
  }

  /// Repositions the read cursor (used for index-directed seeks).
  void seek(size_t NewPos) {
    if (NewPos > Size) {
      Error = true;
      return;
    }
    Pos = NewPos;
  }

  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos >= Size; }
  bool hasError() const { return Error; }
  bool valid() const { return !Error; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Error = false;
};

} // namespace twpp

#endif // TWPP_SUPPORT_BYTESTREAM_H
