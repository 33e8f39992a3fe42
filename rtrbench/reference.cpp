#include "reference.hpp"

#include <bit>

#include "hw/library.hpp"
#include "sim/random.hpp"

namespace rtrbench::ref {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u32(std::uint32_t v, std::uint64_t h) {
  const std::array<std::uint8_t, 4> le = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  return fnv1a(le, h);
}

// --- SHA-1, RFC 3174 section 6.1 ---------------------------------------------

std::array<std::uint32_t, 5> sha1(std::span<const std::uint8_t> msg) {
  std::array<std::uint32_t, 5> h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  // Padded length: message, the 0x80 marker, zeros, the 8-byte length.
  const std::size_t total = (msg.size() + 9 + 63) / 64 * 64;
  const auto byte_at = [&](std::size_t i) -> std::uint8_t {
    if (i < msg.size()) return msg[i];
    if (i == msg.size()) return 0x80;
    if (i + 8 >= total) {
      return static_cast<std::uint8_t>(bit_len >> (8 * (total - 1 - i)));
    }
    return 0;
  };
  std::array<std::uint32_t, 80> w{};
  for (std::size_t block = 0; block < total; block += 64) {
    for (std::size_t t = 0; t < 16; ++t) {
      w[t] = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        w[t] = (w[t] << 8) | byte_at(block + t * 4 + b);
      }
    }
    for (std::size_t t = 16; t < 80; ++t) {
      w[t] = std::rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (std::size_t t = 0; t < 80; ++t) {
      std::uint32_t f = 0;
      std::uint32_t k = 0;
      switch (t / 20) {
        case 0: f = (b & c) | (~b & d); k = 0x5A827999u; break;
        case 1: f = b ^ c ^ d; k = 0x6ED9EBA1u; break;
        case 2: f = (b & c) | (b & d) | (c & d); k = 0x8F1BBCDCu; break;
        default: f = b ^ c ^ d; k = 0xCA62C1D6u; break;
      }
      const std::uint32_t temp = std::rotl(a, 5) + f + e + w[t] + k;
      e = d;
      d = c;
      c = std::rotl(b, 30);
      b = a;
      a = temp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  return h;
}

// --- lookup2 -------------------------------------------------------------------

namespace {

struct Lookup2State {
  std::uint32_t a, b, c;

  void mix() {
    a -= b; a -= c; a ^= c >> 13;
    b -= c; b -= a; b ^= a << 8;
    c -= a; c -= b; c ^= b >> 13;
    a -= b; a -= c; a ^= c >> 12;
    b -= c; b -= a; b ^= a << 16;
    c -= a; c -= b; c ^= b >> 5;
    a -= b; a -= c; a ^= c >> 3;
    b -= c; b -= a; b ^= a << 10;
    c -= a; c -= b; c ^= b >> 15;
  }
};

/// Little-endian word of up to four bytes starting at `p` (missing high
/// bytes read as zero).
std::uint32_t le_word(const std::uint8_t* p, std::size_t n) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < n && i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint32_t lookup2(std::span<const std::uint8_t> key,
                      std::uint32_t initval) {
  Lookup2State s{0x9e3779b9u, 0x9e3779b9u, initval};
  const std::uint8_t* k = key.data();
  std::size_t left = key.size();
  for (; left >= 12; left -= 12, k += 12) {
    s.a += le_word(k, 4);
    s.b += le_word(k + 4, 4);
    s.c += le_word(k + 8, 4);
    s.mix();
  }
  // Tail: a and b take up to four bytes each; c's low byte is reserved for
  // the length, so its tail bytes start at bit 8.
  s.c += static_cast<std::uint32_t>(key.size());
  if (left > 0) s.a += le_word(k, left);
  if (left > 4) s.b += le_word(k + 4, left - 4);
  if (left > 8) s.c += le_word(k + 8, left - 8) << 8;
  s.mix();
  return s.c;
}

// --- image tasks -----------------------------------------------------------------

namespace {
std::uint8_t clamp_byte(int v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}
}  // namespace

std::uint8_t brightness_px(std::uint8_t a) { return clamp_byte(a + 60); }
std::uint8_t blend_px(std::uint8_t a, std::uint8_t b) {
  return clamp_byte(a + b);
}
std::uint8_t fade_px(std::uint8_t a, std::uint8_t b) {
  return clamp_byte((a - b) * 160 / 256 + b);
}

Match pattern_match(int width, int height,
                    std::span<const std::uint32_t> words,
                    const std::array<std::uint8_t, 8>& pattern) {
  const int wpr = (width + 31) / 32;
  const auto pixel = [&](int r, int c) -> unsigned {
    return (words[static_cast<std::size_t>(r * wpr + c / 32)] >> (c % 32)) &
           1u;
  };
  Match best;
  for (int r = 0; r + 8 <= height; ++r) {
    for (int c = 0; c + 8 <= width; ++c) {
      int count = 0;
      for (int pr = 0; pr < 8; ++pr) {
        for (int pc = 0; pc < 8; ++pc) {
          const unsigned want =
              (pattern[static_cast<std::size_t>(pr)] >> pc) & 1u;
          count += pixel(r + pr, c + pc) == want ? 1 : 0;
        }
      }
      if (count > best.count) best = {count, r, c};
    }
  }
  return best;
}

// --- request digests ---------------------------------------------------------------

std::uint64_t input_seed(std::uint64_t server_seed, std::int64_t id) {
  std::uint64_t h = fnv1a_u32(static_cast<std::uint32_t>(server_seed));
  h = fnv1a_u32(static_cast<std::uint32_t>(server_seed >> 32), h);
  return fnv1a_u32(static_cast<std::uint32_t>(id), h);
}

bool expected_digest(int behavior, std::uint64_t server_seed, std::int64_t id,
                     std::uint64_t* digest) {
  // Serving-layer input sizes (serve/exec.hpp): 2 KiB for lookup2, 1 KiB
  // for SHA-1, 64x48 images.
  constexpr int kW = 64;
  constexpr int kH = 48;
  rtr::sim::Rng rng{input_seed(server_seed, id)};
  const auto draw_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = rng.next_u8();
    return v;
  };
  switch (behavior) {
    case rtr::hw::kJenkinsHash:
      *digest = fnv1a_u32(lookup2(draw_bytes(2048)));
      return true;
    case rtr::hw::kSha1: {
      std::uint64_t h = kFnvOffset;
      for (const std::uint32_t w : sha1(draw_bytes(1024))) h = fnv1a_u32(w, h);
      *digest = h;
      return true;
    }
    case rtr::hw::kPatternMatcher:
    case rtr::hw::kPatternMatcherXl: {
      std::vector<std::uint32_t> words(static_cast<std::size_t>(kH) * 2);
      for (auto& w : words) {
        const std::uint32_t x = rng.next_u32();
        w = x & rng.next_u32();
      }
      std::array<std::uint8_t, 8> pat{};
      for (auto& row : pat) row = rng.next_u8();
      const Match m = pattern_match(kW, kH, words, pat);
      std::uint64_t h = fnv1a_u32(static_cast<std::uint32_t>(m.count));
      h = fnv1a_u32(static_cast<std::uint32_t>(m.row), h);
      *digest = fnv1a_u32(static_cast<std::uint32_t>(m.col), h);
      return true;
    }
    case rtr::hw::kBrightness:
    case rtr::hw::kBlendAdd:
    case rtr::hw::kFade: {
      const std::vector<std::uint8_t> a = draw_bytes(kW * kH);
      const std::vector<std::uint8_t> b = draw_bytes(kW * kH);
      std::vector<std::uint8_t> out(a.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = behavior == rtr::hw::kBrightness ? brightness_px(a[i])
                 : behavior == rtr::hw::kBlendAdd ? blend_px(a[i], b[i])
                                                  : fade_px(a[i], b[i]);
      }
      *digest = fnv1a(out);
      return true;
    }
    default:
      return false;
  }
}

// --- self test -----------------------------------------------------------------------

std::vector<std::string> self_test() {
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& what) { errors.push_back(what); };

  // RFC 3174 section 7.3, TEST1..TEST4.
  struct ShaVector {
    std::string text;
    std::size_t repeat;
    std::array<std::uint32_t, 5> digest;
  };
  const ShaVector vectors[] = {
      {"abc", 1,
       {0xA9993E36u, 0x4706816Au, 0xBA3E2571u, 0x7850C26Cu, 0x9CD0D89Du}},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 1,
       {0x84983E44u, 0x1C3BD26Eu, 0xBAAE4AA1u, 0xF95129E5u, 0xE54670F1u}},
      {"a", 1000000,
       {0x34AA973Cu, 0xD4C4DAA4u, 0xF61EEB2Bu, 0xDBAD2731u, 0x6534016Fu}},
      {"0123456701234567012345670123456701234567012345670123456701234567", 10,
       {0xDEA356A2u, 0xCDDD90C7u, 0xA7ECEDC5u, 0xEBB56393u, 0x4F460452u}},
  };
  for (const ShaVector& v : vectors) {
    std::vector<std::uint8_t> msg;
    msg.reserve(v.text.size() * v.repeat);
    for (std::size_t i = 0; i < v.repeat; ++i) {
      msg.insert(msg.end(), v.text.begin(), v.text.end());
    }
    if (sha1(msg) != v.digest) {
      fail("sha1 RFC 3174 vector \"" + v.text.substr(0, 8) + "...\" x" +
           std::to_string(v.repeat));
    }
  }

  // Per-pixel formulas at hand-computed points, including saturation and
  // fade's truncating division of a negative difference.
  struct PxCase {
    const char* name;
    int got;
    int want;
  };
  const PxCase px[] = {
      {"brightness(10)", brightness_px(10), 70},
      {"brightness(200)", brightness_px(200), 255},
      {"blend(100,100)", blend_px(100, 100), 200},
      {"blend(200,100)", blend_px(200, 100), 255},
      {"fade(200,100)", fade_px(200, 100), 162},
      {"fade(100,200)", fade_px(100, 200), 138},
      {"fade(255,0)", fade_px(255, 0), 159},
      {"fade(0,255)", fade_px(0, 255), 96},
  };
  for (const PxCase& c : px) {
    if (c.got != c.want) {
      fail(std::string(c.name) + " = " + std::to_string(c.got) +
           ", expected " + std::to_string(c.want));
    }
  }

  // Window search: a blank 64x16 image scores 64 - popcount(pattern) at
  // every window, so the first window wins; stamping the pattern at (5, 37)
  // makes that window the unique full match.
  const std::array<std::uint8_t, 8> pat = {0x81, 0x42, 0x24, 0x18,
                                           0x1C, 0x26, 0x43, 0x80};
  int ones = 0;
  for (const std::uint8_t row : pat) ones += std::popcount(row);
  std::vector<std::uint32_t> img(16 * 2, 0);
  const Match blank = pattern_match(64, 16, img, pat);
  if (blank.count != 64 - ones || blank.row != 0 || blank.col != 0) {
    fail("pattern match on a blank image");
  }
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      if ((pat[static_cast<std::size_t>(r)] >> c) & 1u) {
        const int col = 37 + c;
        img[static_cast<std::size_t>((5 + r) * 2 + col / 32)] |=
            1u << (col % 32);
      }
    }
  }
  const Match stamped = pattern_match(64, 16, img, pat);
  if (stamped.count != 64 || stamped.row != 5 || stamped.col != 37) {
    fail("pattern match on a stamped image");
  }

  // FNV-1a 64 of "a" (the published test value 0xaf63dc4c8601ec8c).
  const std::uint8_t a = 'a';
  if (fnv1a(std::span<const std::uint8_t>(&a, 1)) != 0xaf63dc4c8601ec8cULL) {
    fail("fnv1a(\"a\")");
  }
  return errors;
}

}  // namespace rtrbench::ref
