// Reference kernels for the benchmark's output checks.
//
// Every served request's digest is recomputed here from its inputs, apart
// from the simulator's timed hardware models, its timed software kernels and
// its own golden models (src/apps/golden.*): nothing in this file includes or
// calls them. The kernels are written from their published definitions and
// are themselves checked by self_test() before any run is trusted.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rtrbench::ref {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = kFnvOffset);
/// FNV-1a over the four little-endian bytes of `v`.
std::uint64_t fnv1a_u32(std::uint32_t v, std::uint64_t h = kFnvOffset);

/// SHA-1 (RFC 3174).
std::array<std::uint32_t, 5> sha1(std::span<const std::uint8_t> msg);

/// Bob Jenkins' lookup2 hash ("Hash functions", Dr. Dobb's Journal, 1997).
std::uint32_t lookup2(std::span<const std::uint8_t> key,
                      std::uint32_t initval = 0);

/// The serving layer's fixed task parameters (docs/SERVING.md): brightness
/// adds 60 with saturation, blend adds the two images with saturation, fade
/// computes ((a - b) * 160) / 256 + b with C division, clamped to a byte.
std::uint8_t brightness_px(std::uint8_t a);
std::uint8_t blend_px(std::uint8_t a, std::uint8_t b);
std::uint8_t fade_px(std::uint8_t a, std::uint8_t b);

struct Match {
  int count = -1;
  int row = 0;
  int col = 0;
};
/// Best 8x8 window of a bit-packed bilevel image (bit c of word
/// [r * words_per_row + c / 32]; pattern row r bit c), counting pixels equal
/// to the pattern; the first position in row-major order wins ties.
Match pattern_match(int width, int height,
                    std::span<const std::uint32_t> words,
                    const std::array<std::uint8_t, 8>& pattern);

/// Input seed of a request: FNV-1a 64 over the low word of the server seed,
/// its high word and the low word of the request id (serve/server.hpp).
std::uint64_t input_seed(std::uint64_t server_seed, std::int64_t id);

/// The digest a correct server returns for request `id` of `behavior` (an
/// hw::BehaviorId), recomputed from the documented input derivation
/// (serve/exec.hpp): a sim::Rng seeded with input_seed() draws the inputs,
/// and the digest is FNV-1a over the output. Returns false for a behaviour
/// the serving layer cannot serve.
bool expected_digest(int behavior, std::uint64_t server_seed, std::int64_t id,
                     std::uint64_t* digest);

/// Checks the kernels against published vectors (RFC 3174 section 7.3 for
/// SHA-1) and hand-computed values of the per-pixel formulas and the window
/// search. Returns one message per failure.
std::vector<std::string> self_test();

}  // namespace rtrbench::ref
