// Host-side staging of workload data in simulated memory (zero simulated
// time; the modelled experiments start with their inputs already resident,
// as the paper's do).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bus/bus.hpp"

namespace rtr::apps {

inline void store_bytes(bus::Bus& b, bus::Addr base,
                        std::span<const std::uint8_t> data) {
  b.poke_block(base, data);
}

inline std::vector<std::uint8_t> fetch_bytes(bus::Bus& b, bus::Addr base,
                                             std::size_t n) {
  std::vector<std::uint8_t> out(n);
  b.peek_block(base, out);
  return out;
}

inline void store_words(bus::Bus& b, bus::Addr base,
                        std::span<const std::uint32_t> words) {
  // Words are staged in the simulator's little-endian memory convention:
  // a little-endian host's words already have that layout, any other host
  // serialises them explicitly.
  if constexpr (std::endian::native == std::endian::little) {
    b.poke_block(base, {reinterpret_cast<const std::uint8_t*>(words.data()),
                        words.size() * 4});
    return;
  }
  std::vector<std::uint8_t> bytes(words.size() * 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    bytes[i * 4 + 0] = static_cast<std::uint8_t>(words[i]);
    bytes[i * 4 + 1] = static_cast<std::uint8_t>(words[i] >> 8);
    bytes[i * 4 + 2] = static_cast<std::uint8_t>(words[i] >> 16);
    bytes[i * 4 + 3] = static_cast<std::uint8_t>(words[i] >> 24);
  }
  b.poke_block(base, bytes);
}

}  // namespace rtr::apps
