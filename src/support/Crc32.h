//===- support/Crc32.h - CRC-32 checksum ------------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven CRC-32 (the IEEE 802.3 polynomial, reflected form
/// 0xEDB88320, computed slicing-by-8) used to frame journal checkpoint
/// records and wire frames, so a torn or bit-flipped record is detected
/// before its payload is trusted. Header only: the journal writer lives
/// in twpp_wpp while tests and tools checksum byte vectors directly.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_CRC32_H
#define TWPP_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace twpp {

namespace detail {

/// Slicing-by-8 tables: Table[0] is the classic bytewise table, and
/// Table[K][I] is the CRC of byte I followed by K zero bytes, so eight
/// input bytes fold in with eight independent lookups.
inline const std::array<std::array<uint32_t, 256>, 8> &crc32Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> Tables = [] {
    std::array<std::array<uint32_t, 256>, 8> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : (C >> 1);
      T[0][I] = C;
    }
    for (uint32_t I = 0; I < 256; ++I)
      for (size_t K = 1; K < 8; ++K)
        T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
    return T;
  }();
  return Tables;
}

} // namespace detail

/// Incremental form: feed \p Crc from a previous call (or crc32Init()) to
/// checksum discontiguous spans.
inline constexpr uint32_t crc32Init() { return 0xFFFFFFFFu; }

inline uint32_t crc32Update(uint32_t Crc, const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  const auto &T = detail::crc32Tables();
  for (; Size >= 8; Size -= 8, Bytes += 8) {
    // Little-endian assembly of the words, so the result does not depend
    // on the host's byte order or on alignment.
    uint32_t Lo = Crc ^ (uint32_t(Bytes[0]) | uint32_t(Bytes[1]) << 8 |
                         uint32_t(Bytes[2]) << 16 | uint32_t(Bytes[3]) << 24);
    uint32_t Hi = uint32_t(Bytes[4]) | uint32_t(Bytes[5]) << 8 |
                  uint32_t(Bytes[6]) << 16 | uint32_t(Bytes[7]) << 24;
    Crc = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
          T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
          T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
  }
  for (; Size > 0; --Size, ++Bytes)
    Crc = T[0][(Crc ^ *Bytes) & 0xFF] ^ (Crc >> 8);
  return Crc;
}

inline constexpr uint32_t crc32Final(uint32_t Crc) { return Crc ^ 0xFFFFFFFFu; }

/// One-shot checksum of \p Size bytes at \p Data.
inline uint32_t crc32(const void *Data, size_t Size) {
  return crc32Final(crc32Update(crc32Init(), Data, Size));
}

} // namespace twpp

#endif // TWPP_SUPPORT_CRC32_H
