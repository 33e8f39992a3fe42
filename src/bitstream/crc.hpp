// CRC-32 over configuration words.
//
// The configuration logic accumulates a CRC over every (register, word)
// write and compares it against the value supplied by the bitstream's CRC
// packet; a mismatch aborts configuration. We use the IEEE 802.3
// polynomial (table-driven, reflected).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace rtr::bitstream {

/// Slice-by-8 lookup tables: kCrc32Tables[0] is the byte-at-a-time table,
/// kCrc32Tables[k][i] the CRC contribution of byte i followed by k zero
/// bytes.
extern const std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables;

class Crc32 {
 public:
  /// Feed one 32-bit word (little-endian byte order). Slice-by-4: the same
  /// value as four update_byte calls, low byte first.
  void update_word(std::uint32_t w) {
    const std::uint32_t x = state_ ^ w;
    state_ = kCrc32Tables[3][x & 0xFFu] ^ kCrc32Tables[2][(x >> 8) & 0xFFu] ^
             kCrc32Tables[1][(x >> 16) & 0xFFu] ^ kCrc32Tables[0][x >> 24];
  }

  /// Feed a register write: the register address participates in the CRC so
  /// that data words cannot be replayed to a different register undetected.
  /// Slice-by-8: the same value as update_word(reg_addr), update_word(word).
  void update_register_write(std::uint32_t reg_addr, std::uint32_t word) {
    const std::uint32_t x = state_ ^ reg_addr;
    state_ = kCrc32Tables[7][x & 0xFFu] ^ kCrc32Tables[6][(x >> 8) & 0xFFu] ^
             kCrc32Tables[5][(x >> 16) & 0xFFu] ^ kCrc32Tables[4][x >> 24] ^
             kCrc32Tables[3][word & 0xFFu] ^
             kCrc32Tables[2][(word >> 8) & 0xFFu] ^
             kCrc32Tables[1][(word >> 16) & 0xFFu] ^
             kCrc32Tables[0][word >> 24];
  }

  void update_byte(std::uint8_t b) {
    state_ = kCrc32Tables[0][static_cast<std::uint8_t>(state_ ^ b)] ^
             (state_ >> 8);
  }

  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

  /// One-shot helper over a word span.
  static std::uint32_t of_words(std::span<const std::uint32_t> words) {
    Crc32 c;
    for (std::uint32_t w : words) c.update_word(w);
    return c.value();
  }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace rtr::bitstream
