#include "bitstream/crc.hpp"

namespace rtr::bitstream {

namespace {
constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
}  // namespace

constinit const std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_tables();

}  // namespace rtr::bitstream
