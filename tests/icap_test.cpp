// Tests for the ICAP/HWICAP model: stream application, CRC and IDCODE
// checking, interrupted reconfigurations, bus-level behaviour and timing.
#include <gtest/gtest.h>

#include "bitlinker/bitlinker.hpp"
#include "bitstream/partial_config.hpp"
#include "bus/bus.hpp"
#include "busmacro/bus_macro.hpp"
#include "fabric/device.hpp"
#include "fabric/dynamic_region.hpp"
#include "icap/icap.hpp"
#include "sim/kernel.hpp"

namespace rtr::icap {
namespace {

using bitlinker::BitLinker;
using bitlinker::ComponentDescriptor;
using bitlinker::LinkResult;
using bitstream::PartialConfig;
using busmacro::ConnectionInterface;
using fabric::ConfigMemory;
using fabric::Device;
using fabric::DynamicRegion;
using sim::Frequency;
using sim::SimTime;

ComponentDescriptor small_component(int behavior = 5) {
  ComponentDescriptor c;
  c.name = "unit";
  c.behavior_id = behavior;
  c.rows = 8;
  c.cols = 10;
  c.logic = fabric::Resources{100, 180, 150, 0};
  c.macros = ConnectionInterface::for_width(32).module_side();
  return c;
}

struct IcapFixture {
  DynamicRegion region = DynamicRegion::xc2vp7_region();
  ConfigMemory baseline{region.device()};
  ConfigMemory fabric_state{region.device()};
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("icap", Frequency::from_mhz(50));
  IcapController icap{sim, clk, {0x4100'0000, 0x1000}, fabric_state};
  BitLinker linker{region, ConnectionInterface::for_width(32), baseline};

  std::vector<std::uint32_t> linked_words(int behavior = 5) {
    const LinkResult r = linker.link_single(small_component(behavior));
    RTR_CHECK(r.ok(), "fixture link failed");
    return bitstream::serialize(*r.config);
  }
};

TEST(IcapTest, AppliesACompleteConfiguration) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.done());
  EXPECT_FALSE(fx.icap.error());
  EXPECT_EQ(fx.icap.frames_written(), fx.region.covered_frames());
  // The fabric now carries a valid module 5 with a matching payload hash.
  EXPECT_EQ(fx.region.scan_signature(fx.fabric_state), 5);
  const auto sig = fx.fabric_state.frame(fx.region.signature_frame());
  EXPECT_EQ(sig[static_cast<std::size_t>(fx.region.signature_word() + 3)],
            bitlinker::region_payload_hash(fx.fabric_state, fx.region));
}

TEST(IcapTest, MatchesOfflineParserApplication) {
  // The ICAP word-at-a-time FSM and the offline parser must agree.
  IcapFixture fx;
  const auto words = fx.linked_words(9);
  fx.icap.feed(words);

  ConfigMemory via_parser{fx.region.device()};
  bitstream::parse(words, fx.region.device()).apply_to(via_parser);
  EXPECT_EQ(ConfigMemory::diff_frames(fx.fabric_state, via_parser), 0);
}

TEST(IcapTest, DetectsCorruptedPayload) {
  IcapFixture fx;
  auto words = fx.linked_words();
  // Flip a bit deep inside the frame data.
  words[words.size() / 2] ^= 0x10;
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_FALSE(fx.icap.done());
}

TEST(IcapTest, RejectsWrongDeviceIdcode) {
  IcapFixture fx;
  // A configuration serialised for the XC2VP30 fed to an XC2VP7's ICAP.
  PartialConfig other{Device::xc2vp30()};
  const auto words = bitstream::serialize(other);
  fx.icap.feed(words);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_EQ(fx.icap.frames_written(), 0);
}

TEST(IcapTest, InterruptedStreamLeavesNoBoundSignature) {
  IcapFixture fx;
  // Load module 5 completely, then half of module 6's configuration.
  fx.icap.feed(fx.linked_words(5));
  ASSERT_EQ(fx.region.scan_signature(fx.fabric_state), 5);
  fx.icap.reset();
  const auto words6 = fx.linked_words(6);
  fx.icap.feed(std::span{words6}.first(words6.size() / 8));
  EXPECT_FALSE(fx.icap.done());
  // The region is a half-5 half-6 mixture now. Either the signature frame
  // still carries 5's id (but the payload hash mismatches) or no coherent
  // signature validates. Both must prevent binding.
  const int sig = fx.region.scan_signature(fx.fabric_state);
  if (sig >= 0) {
    const auto f = fx.fabric_state.frame(fx.region.signature_frame());
    EXPECT_NE(f[static_cast<std::size_t>(fx.region.signature_word() + 3)],
              bitlinker::region_payload_hash(fx.fabric_state, fx.region));
  }
}

TEST(IcapTest, ErrorIsLatchedUntilReset) {
  IcapFixture fx;
  auto bad = fx.linked_words();
  bad[bad.size() / 2] ^= 1;
  fx.icap.feed(bad);
  ASSERT_TRUE(fx.icap.error());
  const auto frames_after_error = fx.icap.frames_written();
  // More words are ignored while the error is latched.
  fx.icap.feed(fx.linked_words());
  EXPECT_EQ(fx.icap.frames_written(), frames_after_error);
  // Reset + reload succeeds.
  fx.icap.reset();
  fx.icap.feed(fx.linked_words());
  EXPECT_TRUE(fx.icap.done());
}

TEST(IcapTest, PartialFrameIsNotApplied) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  // Stop a few words into the first frame's payload: the config memory
  // must still be untouched (frames are the hardware atom).
  // Stream prefix: DUMMY SYNC [IDCODE pkt: 2] [CMD RCRC: 2] [FAR: 2]
  // [CMD WCFG: 2] [FDRI T1: 1] [T2 hdr: 1] then payload.
  const std::size_t header_words = 2 + 2 + 2 + 2 + 2 + 1 + 1;
  fx.icap.feed(std::span{words}.first(header_words + 10));  // 10 < 42
  EXPECT_EQ(fx.icap.frames_written(), 0);
  ConfigMemory blank{fx.region.device()};
  EXPECT_EQ(ConfigMemory::diff_frames(fx.fabric_state, blank), 0);
}

// --- bus-level behaviour -----------------------------------------------------

TEST(IcapTest, BusInterfaceStatusAndControl) {
  IcapFixture fx;
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);

  // Initially unsynced, no flags.
  auto st = opb.read(0x4100'0008, 4, SimTime::zero());
  EXPECT_EQ(st.data, 0u);

  // Stream a config through the bus.
  SimTime t = st.done;
  for (std::uint32_t w : fx.linked_words()) {
    t = opb.write(0x4100'0000, w, 4, t);
  }
  st = opb.read(0x4100'0008, 4, t);
  EXPECT_EQ(st.data & IcapController::kStatusDone, IcapController::kStatusDone);

  // Control reset clears the done flag.
  t = opb.write(0x4100'000C, 1, 4, st.done);
  st = opb.read(0x4100'0008, 4, t);
  EXPECT_EQ(st.data, 0u);
}

TEST(IcapTest, WordWritesPayIcapWaitStates) {
  IcapFixture fx;
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);
  // arb(2) + addr(1) + icap(5) + completion(1) = 9 OPB cycles per word.
  const SimTime done = opb.write(0x4100'0000, bitstream::kDummyWord, 4,
                                 SimTime::zero());
  EXPECT_EQ(done, fx.clk.cycles(9));
}

TEST(IcapTest, ReconfigurationTimeScale) {
  // A complete configuration for the 32-bit region is ~130 KB; at one
  // 32-bit word per 8 OPB cycles (50 MHz) loading must land in the
  // milliseconds -- the scale the paper's tools produce on this device.
  IcapFixture fx;
  const auto words = fx.linked_words();
  bus::OpbBus opb{fx.sim, fx.clk};
  opb.attach(fx.icap.range(), fx.icap);
  SimTime t = SimTime::zero();
  for (std::uint32_t w : words) t = opb.write(0x4100'0000, w, 4, t);
  EXPECT_GT(t, SimTime::from_ms(3));
  EXPECT_LT(t, SimTime::from_ms(15));
}

// --- bulk feed ---------------------------------------------------------------

void expect_same_fsm(IcapFixture& a, IcapFixture& b) {
  EXPECT_EQ(a.icap.synced(), b.icap.synced());
  EXPECT_EQ(a.icap.error(), b.icap.error());
  EXPECT_EQ(a.icap.done(), b.icap.done());
  EXPECT_EQ(a.icap.readback_armed(), b.icap.readback_armed());
  EXPECT_EQ(a.icap.frames_written(), b.icap.frames_written());
  EXPECT_EQ(a.icap.words_consumed(), b.icap.words_consumed());
  EXPECT_EQ(a.sim.stats().counter("icap.frames").value(),
            b.sim.stats().counter("icap.frames").value());
  EXPECT_EQ(ConfigMemory::diff_frames(a.fabric_state, b.fabric_state), 0);
}

/// Feed `words` through `bulk`'s feed(span) -- in chunks split at `cuts` --
/// and through a feed_word loop on a fresh fixture; both must end in the
/// same state.
void expect_bulk_matches_word_loop(std::span<const std::uint32_t> words,
                                   std::vector<std::size_t> cuts,
                                   IcapFixture& bulk) {
  IcapFixture loop;
  std::size_t at = 0;
  for (std::size_t cut : cuts) {
    bulk.icap.feed(words.subspan(at, cut - at));
    at = cut;
  }
  bulk.icap.feed(words.subspan(at));
  for (std::uint32_t w : words) loop.icap.feed_word(w);
  expect_same_fsm(bulk, loop);
}

TEST(IcapBulkFeed, GoodStreamMatchesWordLoop) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  expect_bulk_matches_word_loop(words, {}, fx);
  EXPECT_TRUE(fx.icap.done());
  EXPECT_EQ(fx.icap.frames_written(), fx.region.covered_frames());
}

TEST(IcapBulkFeed, CorruptedFdriWordMatchesWordLoop) {
  IcapFixture fx;
  auto words = fx.linked_words();
  words[words.size() / 2] ^= 0x10;  // inside the frame data: CRC error
  expect_bulk_matches_word_loop(words, {}, fx);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_FALSE(fx.icap.done());
}

TEST(IcapBulkFeed, StreamCutMidFrameMatchesWordLoop) {
  IcapFixture fx;
  const auto words = fx.linked_words();
  const std::size_t header_words = 2 + 2 + 2 + 2 + 2 + 1 + 1;
  for (std::size_t len : {header_words + 10, words.size() / 2 + 3}) {
    IcapFixture bulk;
    expect_bulk_matches_word_loop(std::span{words}.first(len), {}, bulk);
    EXPECT_FALSE(bulk.icap.done());
  }
}

TEST(IcapBulkFeed, FarRunLeavingTheDeviceMatchesWordLoop) {
  using bitstream::make_type1;
  using bitstream::make_type2;
  using bitstream::Opcode;
  IcapFixture fx;
  const Device& dev = fx.region.device();
  // The second-to-last frame in scan order: a three-frame FDRI payload
  // from there runs off the device after two frames.
  fabric::FrameAddress prev{}, last{};
  for (fabric::FrameAddress a{}; a.valid_for(dev); a = a.next_in(dev)) {
    prev = last;
    last = a;
  }
  const auto wpf = static_cast<std::uint32_t>(dev.words_per_frame());
  std::vector<std::uint32_t> words = {
      bitstream::kDummyWord,
      bitstream::kSyncWord,
      make_type1(Opcode::kWrite, bitstream::ConfigReg::kIdcode, 1),
      bitstream::idcode_for(dev),
      make_type1(Opcode::kWrite, bitstream::ConfigReg::kFar, 1),
      prev.pack(),
      make_type1(Opcode::kWrite, bitstream::ConfigReg::kCmd, 1),
      static_cast<std::uint32_t>(bitstream::Command::kWcfg),
      make_type1(Opcode::kWrite, bitstream::ConfigReg::kFdri, 0),
      make_type2(Opcode::kWrite, 3 * wpf)};
  for (std::uint32_t i = 0; i < 3 * wpf; ++i) words.push_back(0x1000 + i);
  expect_bulk_matches_word_loop(words, {}, fx);
  EXPECT_TRUE(fx.icap.error());
  EXPECT_EQ(fx.icap.frames_written(), 2);
}

TEST(IcapBulkFeed, StreamFedInThreeChunksMatchesWordLoop) {
  IcapFixture fx;
  const auto words = fx.linked_words(9);
  // One cut inside the header, one inside a frame's payload.
  expect_bulk_matches_word_loop(words, {7, words.size() / 2 + 17}, fx);
  EXPECT_TRUE(fx.icap.done());
}

}  // namespace
}  // namespace rtr::icap
