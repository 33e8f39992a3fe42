// Unit tests for the bitstream layer: CRC, packet encoding, partial
// configurations, serialisation round-trips.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/crc.hpp"
#include "bitstream/packet.hpp"
#include "bitstream/bitfile.hpp"
#include "bitstream/partial_config.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "sim/random.hpp"

namespace rtr::bitstream {
namespace {

using fabric::ColumnType;
using fabric::ConfigMemory;
using fabric::Device;
using fabric::DynamicRegion;
using fabric::FrameAddress;

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 -- feed as bytes.
  Crc32 c;
  for (char ch : std::string("123456789"))
    c.update_byte(static_cast<std::uint8_t>(ch));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, WordFeedingMatchesByteFeeding) {
  Crc32 a, b;
  a.update_word(0x44332211u);
  for (std::uint8_t byte : {0x11, 0x22, 0x33, 0x44}) b.update_byte(byte);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32, SlicedUpdatesMatchByteFeedingOnRandomWords) {
  sim::Rng rng{2006};
  Crc32 words, regs, bytes;
  for (int i = 0; i < 4096; ++i) {
    const std::uint32_t reg = rng.next_u32();
    const std::uint32_t w = rng.next_u32();
    words.update_word(reg);
    words.update_word(w);
    regs.update_register_write(reg, w);
    for (const std::uint32_t v : {reg, w}) {
      for (int b = 0; b < 4; ++b) {
        bytes.update_byte(static_cast<std::uint8_t>(v >> (8 * b)));
      }
    }
    ASSERT_EQ(words.value(), bytes.value()) << "after word pair " << i;
    ASSERT_EQ(regs.value(), bytes.value()) << "after word pair " << i;
  }
}

TEST(Crc32, RegisterAddressAffectsCrc) {
  Crc32 a, b;
  a.update_register_write(2, 0x1234);
  b.update_register_write(3, 0x1234);
  EXPECT_NE(a.value(), b.value());
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 a;
  a.update_word(99);
  a.reset();
  Crc32 b;
  a.update_word(1);
  b.update_word(1);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Packet, Type1RoundTrip) {
  const std::uint32_t w = make_type1(Opcode::kWrite, ConfigReg::kFar, 1);
  const PacketHeader h = decode_header(w);
  EXPECT_EQ(h.type, PacketHeader::Type::kType1);
  EXPECT_EQ(h.op, Opcode::kWrite);
  EXPECT_EQ(h.reg, ConfigReg::kFar);
  EXPECT_EQ(h.word_count, 1u);
}

TEST(Packet, Type2RoundTrip) {
  const std::uint32_t w = make_type2(Opcode::kWrite, 123456);
  const PacketHeader h = decode_header(w);
  EXPECT_EQ(h.type, PacketHeader::Type::kType2);
  EXPECT_EQ(h.word_count, 123456u);
}

TEST(Packet, NonHeaderWordsRejected) {
  EXPECT_EQ(decode_header(kDummyWord).type, PacketHeader::Type::kNotAHeader);
  EXPECT_EQ(decode_header(0).type, PacketHeader::Type::kNotAHeader);
}

// --- PartialConfig ----------------------------------------------------------

/// Paint `n` random words into frames covered by `region`.
void scribble_region(ConfigMemory& cm, const DynamicRegion& region,
                     sim::Rng& rng, int frames) {
  const auto cols = region.clb_columns();
  for (int i = 0; i < frames; ++i) {
    const int col = cols[rng.below(cols.size())];
    const int minor =
        static_cast<int>(rng.below(fabric::kFramesPerClbColumn));
    const FrameAddress a{ColumnType::kClb, col, minor};
    std::vector<std::uint32_t> patch(static_cast<std::size_t>(region.word_count()));
    for (auto& w : patch) w = rng.next_u32();
    cm.write_words(a, region.first_word(), patch);
  }
}

TEST(PartialConfig, DiffFindsExactlyChangedFrames) {
  const Device& dev = Device::xc2vp7();
  ConfigMemory base{dev}, target{dev};
  const std::uint32_t one[1] = {42};
  target.write_words(FrameAddress{ColumnType::kClb, 3, 5}, 7, one);
  target.write_words(FrameAddress{ColumnType::kClb, 3, 6}, 7, one);
  target.write_words(FrameAddress{ColumnType::kBramContent, 2, 0}, 1, one);

  const PartialConfig d = PartialConfig::diff(base, target);
  EXPECT_EQ(d.total_frames(), 3);
  // Consecutive frames coalesce into one run.
  ASSERT_EQ(d.runs().size(), 2u);
  EXPECT_EQ(d.runs()[0].frame_count, 2);

  ConfigMemory check{dev};
  d.apply_to(check);
  EXPECT_EQ(ConfigMemory::diff_frames(check, target), 0);
}

TEST(PartialConfig, DiffOfIdenticalStatesIsEmpty) {
  const Device& dev = Device::xc2vp7();
  ConfigMemory a{dev}, b{dev};
  EXPECT_EQ(PartialConfig::diff(a, b).total_frames(), 0);
  EXPECT_EQ(PartialConfig::diff(a, b).payload_bytes(), 0);
}

TEST(PartialConfig, FullRegionIsCompleteAndConfined) {
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory state{region.device()};
  sim::Rng rng{11};
  scribble_region(state, region, rng, 40);

  const PartialConfig full = PartialConfig::full_region(state, region);
  EXPECT_EQ(full.total_frames(), region.covered_frames());
  EXPECT_TRUE(full.is_complete_for(region));
  EXPECT_TRUE(full.confined_to(region));

  // A diff-based config of a few frames is generally NOT complete.
  ConfigMemory base{region.device()};
  const PartialConfig d = PartialConfig::diff(base, state);
  EXPECT_FALSE(d.is_complete_for(region));
}

TEST(PartialConfig, CompleteConfigLoadsCorrectlyFromAnyState) {
  // The paper's core correctness argument: a complete (BitLinker-style)
  // configuration yields the same region contents regardless of what was
  // loaded before; a differential configuration does not.
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  const Device& dev = region.device();
  sim::Rng rng{22};

  ConfigMemory module_a{dev}, module_b{dev};
  scribble_region(module_a, region, rng, 30);
  scribble_region(module_b, region, rng, 30);

  const PartialConfig complete_b = PartialConfig::full_region(module_b, region);
  // Load B's complete config over state A and over a blank fabric.
  ConfigMemory from_a{dev};
  PartialConfig::full_region(module_a, region).apply_to(from_a);
  complete_b.apply_to(from_a);
  ConfigMemory from_blank{dev};
  complete_b.apply_to(from_blank);
  EXPECT_EQ(ConfigMemory::diff_frames(from_a, from_blank), 0);

  // Differential config of B against blank, applied over A: stale frames.
  ConfigMemory blank{dev};
  const PartialConfig diff_b = PartialConfig::diff(blank, module_b);
  ConfigMemory wrong{dev};
  PartialConfig::full_region(module_a, region).apply_to(wrong);
  diff_b.apply_to(wrong);
  EXPECT_GT(ConfigMemory::diff_frames(wrong, from_blank), 0);
}

TEST(PartialConfig, PayloadBytesScaleWithFrames) {
  const DynamicRegion r32 = DynamicRegion::xc2vp7_region();
  ConfigMemory s{r32.device()};
  const PartialConfig full = PartialConfig::full_region(s, r32);
  EXPECT_EQ(full.payload_bytes(),
            static_cast<std::int64_t>(full.total_frames()) *
                r32.device().words_per_frame() * 4);
}

// --- Serialisation ----------------------------------------------------------

TEST(Serialize, RoundTripThroughParser) {
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory state{region.device()};
  sim::Rng rng{33};
  scribble_region(state, region, rng, 25);
  const PartialConfig cfg = PartialConfig::full_region(state, region);

  const std::vector<std::uint32_t> words = serialize(cfg);
  EXPECT_EQ(words.front(), kDummyWord);
  EXPECT_EQ(words[1], kSyncWord);
  EXPECT_EQ(words.back(), kDummyWord);

  const PartialConfig back = parse(words, region.device());
  ASSERT_EQ(back.runs().size(), cfg.runs().size());
  for (std::size_t i = 0; i < cfg.runs().size(); ++i) {
    EXPECT_EQ(back.runs()[i].start, cfg.runs()[i].start);
    EXPECT_EQ(back.runs()[i].words, cfg.runs()[i].words);
  }
}

TEST(Serialize, EmptyConfigStillFramedCorrectly) {
  PartialConfig empty{Device::xc2vp7()};
  const auto words = serialize(empty);
  const PartialConfig back = parse(words, Device::xc2vp7());
  EXPECT_EQ(back.total_frames(), 0);
}

TEST(Serialize, WithAndWithoutCrcDifferInLengthOnly) {
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory state{region.device()};
  const PartialConfig cfg = PartialConfig::full_region(state, region);
  const auto with = serialize(cfg, true);
  const auto without = serialize(cfg, false);
  EXPECT_EQ(with.size(), without.size());  // CRC packet vs RCRC command
  EXPECT_EQ(parse(with, region.device()).total_frames(),
            parse(without, region.device()).total_frames());
}

TEST(Serialize, OverheadIsSmallRelativeToPayload) {
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory state{region.device()};
  const PartialConfig cfg = PartialConfig::full_region(state, region);
  const auto words = serialize(cfg);
  const auto payload_words = cfg.payload_bytes() / 4;
  EXPECT_LT(static_cast<std::int64_t>(words.size()) - payload_words,
            payload_words / 10);
}

// --- .bit container ----------------------------------------------------------

TEST(BitFile, RoundTrip) {
  const DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory state{region.device()};
  sim::Rng rng{44};
  scribble_region(state, region, rng, 10);
  BitFile f;
  f.design = "fade32.ncd;UserID=0xFFFFFFFF";
  f.part = part_string(region.device().name());
  f.date = "2026/07/05";
  f.time = "12:00:00";
  f.words = serialize(PartialConfig::full_region(state, region));

  const auto bytes = write_bitfile(f);
  const BitFile back = parse_bitfile(bytes);
  EXPECT_EQ(back.design, f.design);
  EXPECT_EQ(back.part, "2vp7fg456");
  EXPECT_EQ(back.date, f.date);
  EXPECT_EQ(back.time, f.time);
  EXPECT_EQ(back.words, f.words);

  // The payload is still a loadable configuration.
  const PartialConfig cfg = parse(back.words, region.device());
  EXPECT_TRUE(cfg.is_complete_for(region));
}

TEST(BitFile, PartStrings) {
  EXPECT_EQ(part_string("XC2VP7-FG456-6"), "2vp7fg456");
  EXPECT_EQ(part_string("XC2VP30-FF896-7"), "2vp30ff896");
}

TEST(BitFile, MalformedInputsAbort) {
  BitFile f;
  f.design = "x";
  f.part = "p";
  f.date = "d";
  f.time = "t";
  f.words = {1, 2, 3};
  auto bytes = write_bitfile(f);
  // Preamble corruption.
  auto bad = bytes;
  bad[0] ^= 1;
  EXPECT_DEATH((void)parse_bitfile(bad), "preamble");
  // Truncation.
  EXPECT_DEATH((void)parse_bitfile(std::span{bytes}.first(bytes.size() - 2)),
               "length invalid|truncated");
  // Trailing garbage.
  bad = bytes;
  bad.push_back(0);
  EXPECT_DEATH((void)parse_bitfile(bad), "trailing");
}

TEST(BitFile, EmptyPayloadAllowed) {
  BitFile f;
  f.design = "empty";
  f.part = "2vp7fg456";
  f.date = "-";
  f.time = "-";
  const BitFile back = parse_bitfile(write_bitfile(f));
  EXPECT_TRUE(back.words.empty());
}

}  // namespace
}  // namespace rtr::bitstream
