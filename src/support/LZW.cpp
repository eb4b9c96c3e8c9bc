//===- support/LZW.cpp - Welch's adaptive dictionary codec ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/LZW.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "support/ByteStream.h"

#include <vector>

using namespace twpp;

namespace {

/// Encoder dictionary: open addressing with linear probing over packed
/// 64-bit slots, each `(prefix << 8 | byte) << 20 | code`. Codes are below
/// LZWMaxDictSize (2^20) and at least 256, so a zero slot is empty. The
/// table starts small and doubles when half full; it is not sized from
/// the input, whose length says little about how many strings it holds.
class EncodeDict {
public:
  static constexpr unsigned CodeBits = 20;
  static_assert(LZWMaxDictSize <= (1u << CodeBits), "codes must fit a slot");

  EncodeDict() : Slots(1u << 12, 0), Mask(Slots.size() - 1) {}

  /// The slot holding (\p Prefix, \p Byte), or the empty slot where
  /// insert() would put it.
  size_t lookup(uint32_t Prefix, uint8_t Byte) const {
    uint64_t Key = packKey(Prefix, Byte);
    size_t I = slotOf(Key);
    while (Slots[I] != 0 && (Slots[I] >> CodeBits) != Key)
      I = (I + 1) & Mask;
    return I;
  }

  /// The code stored in \p Slot, or 0 when the slot is empty.
  uint32_t codeAt(size_t Slot) const {
    return static_cast<uint32_t>(Slots[Slot] & ((1u << CodeBits) - 1));
  }

  /// Stores (\p Prefix, \p Byte) -> \p Code in the empty \p Slot that
  /// lookup() returned for it.
  void insert(size_t Slot, uint32_t Prefix, uint8_t Byte, uint32_t Code) {
    Slots[Slot] = packKey(Prefix, Byte) << CodeBits | Code;
    if (++Count * 2 > Slots.size())
      grow();
  }

private:
  static uint64_t packKey(uint32_t Prefix, uint8_t Byte) {
    return static_cast<uint64_t>(Prefix) << 8 | Byte;
  }

  size_t slotOf(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> 32) & Mask;
  }

  void grow() {
    std::vector<uint64_t> Old(Slots.size() * 2, 0);
    Old.swap(Slots);
    Mask = Slots.size() - 1;
    for (uint64_t Slot : Old) {
      if (Slot == 0)
        continue;
      size_t I = slotOf(Slot >> CodeBits);
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = Slot;
    }
  }

  std::vector<uint64_t> Slots;
  size_t Mask;
  size_t Count = 0;
};

/// Decoder-side dictionary entry. Entries 0-255 are the implicit single
/// byte roots; later entries chain back through Prefix.
struct DecodeEntry {
  uint32_t Prefix;   ///< Code of the string this entry extends.
  uint8_t LastByte;  ///< Byte appended to the prefix string.
  uint8_t FirstByte; ///< First byte of the full string (for KwKwK).
  uint32_t Length;   ///< Full expanded length.
};

} // namespace

std::vector<uint8_t> twpp::lzwCompress(const std::vector<uint8_t> &Input) {
  obs::PhaseSpan Span("lzw_compress");
  ByteWriter Writer;
  if (Input.empty())
    return Writer.take();

  // Codes 0-255 are the single-byte strings; new codes start at 256.
  EncodeDict Dict;
  uint32_t NextCode = 256;

  uint32_t Current = Input[0];
  for (size_t I = 1, E = Input.size(); I != E; ++I) {
    uint8_t Byte = Input[I];
    size_t Slot = Dict.lookup(Current, Byte);
    if (uint32_t Code = Dict.codeAt(Slot)) {
      Current = Code;
      continue;
    }
    Writer.writeVarUint(Current);
    if (NextCode < LZWMaxDictSize)
      Dict.insert(Slot, Current, Byte, NextCode++);
    Current = Byte;
  }
  Writer.writeVarUint(Current);
  std::vector<uint8_t> Out = Writer.take();
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Calls = M.counter(obs::names::LzwCompressCalls);
    static obs::Counter &BytesIn = M.counter(obs::names::LzwCompressBytesIn);
    static obs::Counter &DictEntries = M.counter(obs::names::LzwDictEntries);
    Calls.add();
    BytesIn.add(Input.size());
    DictEntries.add(NextCode - 256);
  }
  return Out;
}

bool twpp::lzwDecompress(ByteSpan Input, std::vector<uint8_t> &Output) {
  obs::PhaseSpan Span("lzw_decompress");
  Output.clear();
  if (Input.empty())
    return true;

  ByteReader Reader(Input);
  std::vector<DecodeEntry> Dict;
  Dict.reserve(1u << 16);

  // Expands code \p Code to the end of Output. Returns false on a bad code.
  auto Expand = [&Dict, &Output](uint32_t Code) -> bool {
    if (Code < 256) {
      Output.push_back(static_cast<uint8_t>(Code));
      return true;
    }
    uint32_t Index = Code - 256;
    if (Index >= Dict.size())
      return false;
    const DecodeEntry &Entry = Dict[Index];
    size_t Start = Output.size();
    Output.resize(Start + Entry.Length);
    size_t Pos = Start + Entry.Length;
    uint32_t Walk = Code;
    while (Walk >= 256) {
      const DecodeEntry &E = Dict[Walk - 256];
      Output[--Pos] = E.LastByte;
      Walk = E.Prefix;
    }
    Output[--Pos] = static_cast<uint8_t>(Walk);
    return true;
  };

  auto FirstByteOf = [&Dict](uint32_t Code) -> uint8_t {
    if (Code < 256)
      return static_cast<uint8_t>(Code);
    return Dict[Code - 256].FirstByte;
  };

  auto LengthOf = [&Dict](uint32_t Code) -> uint32_t {
    if (Code < 256)
      return 1;
    return Dict[Code - 256].Length;
  };

  uint64_t First = Reader.readVarUint();
  if (Reader.hasError() || First >= 256) {
    Output.clear();
    return false;
  }
  uint32_t Previous = static_cast<uint32_t>(First);
  Output.push_back(static_cast<uint8_t>(Previous));

  while (!Reader.atEnd()) {
    uint64_t Raw = Reader.readVarUint();
    if (Reader.hasError()) {
      Output.clear();
      return false;
    }
    uint32_t Code = static_cast<uint32_t>(Raw);
    uint32_t NextCode = 256 + static_cast<uint32_t>(Dict.size());

    if (Code == NextCode && NextCode < LZWMaxDictSize) {
      // KwKwK: the code being defined right now. Its expansion is the
      // previous string plus that string's first byte.
      Dict.push_back({Previous, FirstByteOf(Previous), FirstByteOf(Previous),
                      LengthOf(Previous) + 1});
      if (!Expand(Code)) {
        Output.clear();
        return false;
      }
    } else {
      if (Code >= 256 && Code - 256 >= Dict.size()) {
        Output.clear();
        return false;
      }
      if (NextCode < LZWMaxDictSize)
        Dict.push_back({Previous, FirstByteOf(Code), FirstByteOf(Previous),
                        LengthOf(Previous) + 1});
      if (!Expand(Code)) {
        Output.clear();
        return false;
      }
    }
    Previous = Code;
  }
  return true;
}
