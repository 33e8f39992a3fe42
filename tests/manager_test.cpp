// Tests for the ModuleManager's safe differential reconfiguration: fast
// path, fallback on stale assumptions, and functional correctness of
// modules loaded through differentials.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "bitstream/partial_config.hpp"
#include "rtr/manager.hpp"
#include "rtr/plan_cache.hpp"
#include "rtr/platform.hpp"
#include "rtr/platform_dual.hpp"

namespace rtr {
namespace {

using bus::Addr;
using sim::SimTime;

template <typename P>
struct Width;
template <>
struct Width<Platform32> {
  static constexpr int v = 32;
};
template <>
struct Width<Platform64> {
  static constexpr int v = 64;
};

template <typename P>
class ManagerTest : public ::testing::Test {};
using BothPlatforms = ::testing::Types<Platform32, Platform64>;
TYPED_TEST_SUITE(ManagerTest, BothPlatforms);

TYPED_TEST(ManagerTest, FirstLoadIsCompleteThenDifferentials) {
  TypeParam p;
  ModuleManager<TypeParam> mgr{p};
  const int w = Width<TypeParam>::v;

  const auto first = mgr.ensure(hw::kBrightness, w);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.used_differential);  // nothing to diff against yet
  EXPECT_FALSE(first.already_resident);

  const auto second = mgr.ensure(hw::kFade, w);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.used_differential);
  EXPECT_FALSE(second.fell_back);
  // Differential streams are much smaller than complete ones.
  EXPECT_LT(second.stream_words * 2, first.stream_words);
  EXPECT_LT(second.time, first.time);

  const auto again = mgr.ensure(hw::kFade, w);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.already_resident);
  EXPECT_EQ(again.stream_words, 0);
}

TYPED_TEST(ManagerTest, DifferentialLoadsAreFunctionallyComplete) {
  TypeParam p;
  ModuleManager<TypeParam> mgr{p};
  const int w = Width<TypeParam>::v;
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, w).ok);
  const auto s = mgr.ensure(hw::kJenkinsHash, w);
  ASSERT_TRUE(s.ok);
  ASSERT_TRUE(s.used_differential);

  const auto key = std::vector<std::uint8_t>(77, 0x44);
  const Addr key_at = TypeParam::kConfigStaging - 0x10000;
  apps::store_bytes(p.cpu().plb(), key_at, key);
  EXPECT_EQ(apps::hw_jenkins_pio(p.kernel(), TypeParam::dock_data(), key_at,
                                 77),
            apps::jenkins_hash(key));
}

TEST(ManagerFallback, StaleAssumptionFallsBackToComplete) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);

  // Someone else rewrites part of the region behind the manager's back (a
  // debugger, scrubber repair, another software component).
  std::vector<std::uint32_t> junk(
      static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x77777);
  bitstream::PartialConfig rogue{p.region().device()};
  // The frame sits in a column neither assembly touches, so the
  // differential will not rewrite it -- the stale state survives the
  // differential load and only the payload-hash gate can catch it.
  rogue.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 15, 2},
                 1, junk});
  for (std::uint32_t word : bitstream::serialize(rogue)) {
    p.cpu().store32(Platform32::kIcapRange.base, word);
  }

  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.fell_back);           // differential refused to bind
  EXPECT_FALSE(s.used_differential);  // the complete config did the job
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kFade);
}

TEST(ManagerFallback, InvalidateForcesCompletePath) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  mgr.invalidate();
  EXPECT_EQ(mgr.resident(), -1);
  const auto s = mgr.ensure(hw::kBrightness, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);
  EXPECT_FALSE(s.already_resident);
}

TEST(ManagerFallback, DisabledDifferentialAlwaysLoadsComplete) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p, /*enable_differential=*/false};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);
}

TEST(ManagerSavings, AlternationIsMuchCheaperWithDifferentials) {
  // The module_swap scenario, managed: after warmup every swap ships only
  // the frames that differ between the two assemblies.
  Platform32 managed;
  ModuleManager<Platform32> mgr{managed};
  ASSERT_TRUE(mgr.ensure(hw::kJenkinsHash, 32).ok);
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);  // warmup pair
  SimTime diff_time;
  for (int i = 0; i < 3; ++i) {
    auto a = mgr.ensure(hw::kJenkinsHash, 32);
    auto b = mgr.ensure(hw::kBrightness, 32);
    ASSERT_TRUE(a.ok && b.ok);
    ASSERT_TRUE(a.used_differential && b.used_differential);
    diff_time += a.time + b.time;
  }

  Platform32 plain;
  SimTime full_time;
  for (int i = 0; i < 3; ++i) {
    auto a = plain.load_module(hw::kJenkinsHash);
    auto b = plain.load_module(hw::kBrightness);
    ASSERT_TRUE(a.ok && b.ok);
    full_time += a.duration() + b.duration();
  }
  EXPECT_LT(diff_time.ps() * 2, full_time.ps());
}

TYPED_TEST(ManagerTest, CachedAndUncachedRunsAreByteIdentical) {
  // The plan cache removes host-side work only: simulated times, stream
  // word counts and the bound signature must not depend on it.
  const int w = Width<TypeParam>::v;
  const hw::BehaviorId seq[] = {hw::kBrightness, hw::kFade, hw::kBrightness,
                                hw::kJenkinsHash, hw::kFade, hw::kFade,
                                hw::kBrightness};

  TypeParam pc;
  ModuleManager<TypeParam> cached{pc};
  TypeParam pu;
  ModuleManager<TypeParam> uncached{pu};
  uncached.set_plan_cache_enabled(false);

  for (const hw::BehaviorId id : seq) {
    const auto a = cached.ensure(id, w);
    const auto b = uncached.ensure(id, w);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.time.ps(), b.time.ps());
    EXPECT_EQ(a.stream_words, b.stream_words);
    EXPECT_EQ(a.used_differential, b.used_differential);
    EXPECT_FALSE(b.plan_cached);  // the uncached manager never reports one
  }
  EXPECT_EQ(pc.kernel().now().ps(), pu.kernel().now().ps());
  EXPECT_EQ(pc.region().scan_signature(pc.fabric_state()),
            pu.region().scan_signature(pu.fabric_state()));
}

TEST(ManagerPlanCache, RepeatSwapsHitTheDifferentialCache) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto cold = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(cold.ok);
  EXPECT_TRUE(cold.used_differential);
  EXPECT_FALSE(cold.plan_cached);  // first time this pair is diffed

  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const auto warm = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.used_differential);
  EXPECT_TRUE(warm.plan_cached);
  EXPECT_EQ(warm.stream_words, cold.stream_words);
  EXPECT_EQ(mgr.plan_cache().diff_plans(), 2u);  // both directions built

  EXPECT_GT(p.sim().stats().counter("rtr.plan_cache.hits").value(), 0);
  EXPECT_GT(
      p.sim().stats().histogram("rtr.ensure.latency_ps.cached").count(), 0);
  EXPECT_GT(
      p.sim().stats().histogram("rtr.ensure.latency_ps.complete").count(), 0);
}

TEST(ManagerPlanCache, WarmMakesTheNextSwapAPlanHit) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const sim::SimTime before = p.kernel().now();
  ASSERT_TRUE(mgr.warm(hw::kFade, 32));
  EXPECT_EQ(p.kernel().now().ps(), before.ps());  // warming is host-only
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(s.used_differential);
  EXPECT_TRUE(s.plan_cached);
}

TEST(ManagerPlanCache, InvalidateBumpsGenerationAndForcesColdPath) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  ASSERT_TRUE(mgr.warm(hw::kFade, 32));  // plan warmed against current state
  const std::uint64_t gen = p.fabric_state().generation();
  mgr.invalidate();
  EXPECT_GT(p.fabric_state().generation(), gen);
  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok);
  EXPECT_FALSE(s.used_differential);  // residency dropped: complete path
}

TEST(ManagerPlanCache, ExternalFabricWriteFailsTheGenerationTag) {
  Platform32 p;
  ModuleManager<Platform32> mgr{p};
  ASSERT_TRUE(mgr.ensure(hw::kBrightness, 32).ok);
  const std::uint64_t gen = p.fabric_state().generation();

  // Any external write moves the tag, even one the differential would not
  // touch; the manager must refuse the cached plan and fall back.
  std::vector<std::uint32_t> junk(
      static_cast<std::size_t>(p.fabric_state().words_per_frame()), 0x77777);
  bitstream::PartialConfig rogue{p.region().device()};
  rogue.add_run({fabric::FrameAddress{fabric::ColumnType::kClb,
                                      p.region().rect().col0 + 15, 2},
                 1, junk});
  for (std::uint32_t word : bitstream::serialize(rogue)) {
    p.cpu().store32(Platform32::kIcapRange.base, word);
  }
  EXPECT_GT(p.fabric_state().generation(), gen);

  const auto s = mgr.ensure(hw::kFade, 32);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_TRUE(s.fell_back);
  EXPECT_FALSE(s.used_differential);
  EXPECT_GT(
      p.sim().stats().counter("rtr.plan_cache.gen_invalidations").value(), 0);
  EXPECT_EQ(p.region().scan_signature(p.fabric_state()), hw::kFade);
}

// --- closed-form ICAP streaming ----------------------------------------------
// The CPU-fed reconfiguration loop replays its steady state in one step
// unless something needs every word (here: an enabled tracer). Each case
// runs the same loads on two identical platforms, one kept on the per-word
// loop, and demands identical results down to the stats export.

/// A tracer that forces the per-word loop without keeping its events.
struct PerWordTracer {
  trace::Tracer t;
  PerWordTracer() {
    t.enable();
    t.set_store_events(false);
  }
};

PlatformOptions with_areas(int areas, trace::Tracer* tracer = nullptr) {
  PlatformOptions o;
  o.dynamic_areas = areas;
  o.tracer = tracer;
  return o;
}

std::string stats_json(sim::Simulation& s) {
  std::ostringstream os;
  s.stats().export_json(os);
  return os.str();
}

void expect_same_load(const ReconfigStats& fast, const ReconfigStats& slow) {
  EXPECT_EQ(fast.started, slow.started);
  EXPECT_EQ(fast.finished, slow.finished);
  EXPECT_EQ(fast.stream_words, slow.stream_words);
  EXPECT_EQ(fast.ok, slow.ok);
  EXPECT_EQ(fast.error, slow.error);
}

template <typename P>
void expect_same_platform(P& fast, P& slow) {
  EXPECT_EQ(fast.kernel().now(), slow.kernel().now());
  EXPECT_EQ(fast.sim().horizon(), slow.sim().horizon());
  EXPECT_EQ(fast.cpu().plb().busy_until(), slow.cpu().plb().busy_until());
  EXPECT_EQ(fast.opb().busy_until(), slow.opb().busy_until());
  EXPECT_EQ(fabric::ConfigMemory::diff_frames(fast.fabric_state(),
                                              slow.fabric_state()),
            0);
  EXPECT_EQ(stats_json(fast.sim()), stats_json(slow.sim()));
}

/// Per area: a cached complete plan, a freshly serialised differential, a
/// cached differential; then a freshly linked complete load of area 0.
template <typename P>
std::vector<ReconfigStats> load_sequence(P& p, int width) {
  PlanCache plans;
  std::string err;
  std::vector<ReconfigStats> out;
  for (int a = 0; a < p.area_count(); ++a) {
    const auto* full =
        plans.complete(p.linker(a), hw::kBrightness, width, &err, nullptr, a);
    const auto* there = plans.differential(p.linker(a), hw::kBrightness,
                                           hw::kFade, width, &err, nullptr, a);
    const auto* back = plans.differential(p.linker(a), hw::kFade,
                                          hw::kBrightness, width, &err,
                                          nullptr, a);
    RTR_CHECK(full && there && back, "plan build failed");
    out.push_back(p.load_stream(full->words, full->payload_bytes, false, a));
    out.push_back(p.load_config(there->config));
    out.push_back(p.load_stream(back->words, back->payload_bytes, true, a));
  }
  out.push_back(p.load_module(hw::kJenkinsHash));
  return out;
}

template <typename P>
void expect_equivalent_loads(int areas) {
  PerWordTracer tr;
  P fast{with_areas(areas)};
  P slow{with_areas(areas, &tr.t)};
  const int width = Width<P>::v;
  const auto a = load_sequence(fast, width);
  const auto b = load_sequence(slow, width);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("load " + std::to_string(i));
    EXPECT_TRUE(a[i].ok) << a[i].error;
    expect_same_load(a[i], b[i]);
  }
  expect_same_platform(fast, slow);
}

TEST(ClosedFormStreaming, Platform64OneAreaMatchesPerWordLoop) {
  expect_equivalent_loads<Platform64>(1);
}

TEST(ClosedFormStreaming, Platform64TwoAreasMatchesPerWordLoop) {
  expect_equivalent_loads<Platform64>(2);
}

TEST(ClosedFormStreaming, Platform32MatchesPerWordLoop) {
  expect_equivalent_loads<Platform32>(1);
}

TEST(ClosedFormStreaming, DualPlatformMatchesPerWordLoop) {
  // The dual system only loads freshly linked complete configurations.
  PerWordTracer tr;
  Platform64Dual fast;
  Platform64Dual slow{with_areas(1, &tr.t)};
  for (const auto& [region, id] :
       {std::pair{0, hw::kBrightness}, std::pair{1, hw::kFade},
        std::pair{0, hw::kJenkinsHash}}) {
    const ReconfigStats a = fast.load_module(region, id);
    const ReconfigStats b = slow.load_module(region, id);
    EXPECT_TRUE(a.ok) << a.error;
    expect_same_load(a, b);
  }
  expect_same_platform(fast, slow);
}

TEST(ClosedFormStreaming, ManagerSwapsMatchPerWordLoop) {
  PerWordTracer tr;
  Platform64 fast{with_areas(2)};
  Platform64 slow{with_areas(2, &tr.t)};
  ModuleManager<Platform64> mf{fast};
  ModuleManager<Platform64> ms{slow};
  for (const hw::BehaviorId id :
       {hw::kBrightness, hw::kFade, hw::kJenkinsHash, hw::kBrightness,
        hw::kSha1, hw::kFade, hw::kJenkinsHash, hw::kFade}) {
    const EnsureStats a = mf.ensure(id, 64);
    const EnsureStats b = ms.ensure(id, 64);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.stream_words, b.stream_words);
    EXPECT_EQ(a.used_differential, b.used_differential);
    EXPECT_EQ(a.plan_cached, b.plan_cached);
  }
  expect_same_platform(fast, slow);
}

/// Start time of every word of the next CPU-fed load: the issue time of
/// its staging read on the PLB, taken from a per-word run's bus trace.
struct WordStarts {
  trace::Tracer t;
  std::vector<sim::SimTime> at;
  WordStarts(bus::Addr staging, std::size_t words) {
    t.enable();
    t.set_store_events(false);
    t.set_observer([this, staging, words](const trace::TraceEvent& ev) {
      const auto addr = static_cast<bus::Addr>(ev.arg_value);
      if (ev.name == "rd" && t.tracks()[static_cast<std::size_t>(ev.track)] ==
                                 "PLB" &&
          addr >= staging && addr < staging + words * 4) {
        at.push_back(sim::SimTime{ev.ts_ps});
      }
    });
  }
};

template <typename P>
class WatchdogBoundary : public ::testing::Test {};
TYPED_TEST_SUITE(WatchdogBoundary, BothPlatforms);

TYPED_TEST(WatchdogBoundary, ClosedFormAbortsAtTheSameWordAsThePerWordLoop) {
  using P = TypeParam;
  const int width = Width<P>::v;
  // The load under test: brightness -> fade, as a cached differential,
  // after a complete load of brightness.
  PlanCache plans;
  std::string err;
  P ref_host;
  const auto* full = plans.complete(ref_host.linker(0), hw::kBrightness,
                                    width, &err, nullptr, 0);
  const auto* diff = plans.differential(ref_host.linker(0), hw::kBrightness,
                                        hw::kFade, width, &err, nullptr, 0);
  ASSERT_TRUE(full && diff) << err;
  const std::size_t n = diff->words.size();

  WordStarts starts{P::kConfigStaging, n};
  ReconfigStats whole;
  {
    P ref{with_areas(1, &starts.t)};
    ASSERT_TRUE(ref.load_stream(full->words, full->payload_bytes, false).ok);
    starts.at.clear();
    whole = ref.load_stream(diff->words, diff->payload_bytes, true);
    ASSERT_TRUE(whole.ok) << whole.error;
  }
  ASSERT_EQ(starts.at.size(), n);

  const auto abort_at = [&](sim::SimTime deadline) {
    PerWordTracer tr;
    P fast;
    P slow{with_areas(1, &tr.t)};
    std::pair<ReconfigStats, ReconfigStats> out;
    for (P* p : {&fast, &slow}) {
      EXPECT_TRUE(p->load_stream(full->words, full->payload_bytes, false).ok);
      p->set_load_deadline(deadline);
      (p == &fast ? out.first : out.second) =
          p->load_stream(diff->words, diff->payload_bytes, true);
    }
    expect_same_load(out.first, out.second);
    EXPECT_EQ(out.first.watchdog, out.second.watchdog);
    expect_same_platform(fast, slow);
    return out.first;
  };
  const auto expect_abort_after = [&](sim::SimTime deadline,
                                      std::size_t streamed) {
    SCOPED_TRACE("deadline " + deadline.to_string());
    const ReconfigStats s = abort_at(deadline);
    EXPECT_TRUE(s.watchdog);
    EXPECT_EQ(s.error, "watchdog: load deadline expired after " +
                           std::to_string(streamed) + "/" +
                           std::to_string(n) + " words");
  };

  const std::size_t mid = n / 2;
  const sim::SimTime ps{1};
  expect_abort_after(starts.at[0] - ps, 0);       // before the first word
  expect_abort_after(starts.at[1] + ps, 2);       // inside the warm-up
  expect_abort_after(starts.at[mid], mid);        // at a word's start
  expect_abort_after(starts.at[mid] + ps, mid + 1);  // 1 ps after it
  expect_abort_after(starts.at[n - 1], n - 1);    // at the last word
  const ReconfigStats past = abort_at(whole.finished + ps);  // past the end
  EXPECT_TRUE(past.ok) << past.error;
  EXPECT_FALSE(past.watchdog);
  EXPECT_EQ(past.finished, whole.finished);
}

}  // namespace
}  // namespace rtr
