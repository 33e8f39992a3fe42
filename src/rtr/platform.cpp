#include "rtr/platform.hpp"

#include <algorithm>
#include <sstream>

#include "apps/memio.hpp"
#include "bitstream/partial_config.hpp"
#include "busmacro/bus_macro.hpp"
#include "sim/check.hpp"

namespace rtr {

using bus::Addr;
using sim::Frequency;
using sim::SimTime;

namespace {

/// Build the platform's fault injector from its options: the explicit plan
/// plus the corrupt_config_word CLI shim. Null when nothing is scheduled,
/// so the components' injection points stay on their fast path.
std::unique_ptr<fault::FaultInjector> arm_faults(const PlatformOptions& opts,
                                                 sim::Simulation& sim) {
  fault::FaultPlan plan = opts.fault_plan;
  if (opts.corrupt_config_word >= 0) {
    // Shim: flip bit 8 of staged word `corrupt_config_word` on every load.
    fault::FaultSpec s;
    s.site = fault::Site::kConfigStorage;
    s.kind = fault::TriggerKind::kStuck;
    s.n = 0;
    s.word = opts.corrupt_config_word;
    s.mask = 0x0100;
    plan.add(s);
  }
  if (plan.empty()) return nullptr;
  auto fi = std::make_unique<fault::FaultInjector>(std::move(plan));
  fi->bind(sim);
  sim.attach_faults(*fi);
  return fi;
}

/// Timing state of the reconfiguration loop between two words: the CPU
/// clock and both buses' reservations, measured from it.
struct LoopState {
  SimTime now;
  SimTime plb_lead;
  SimTime opb_lead;
};

LoopState loop_state(const cpu::Kernel& k, const bus::Bus& plb,
                     const bus::Bus& opb) {
  return {k.now(), plb.busy_until() - k.now(), opb.busy_until() - k.now()};
}

bool is_multiple(SimTime d, const sim::Clock& c) {
  return d.ps() % c.period().ps() == 0;
}

}  // namespace

namespace detail {

std::int64_t icap_load_loop(cpu::Kernel& k, bus::Bus& opb,
                            icap::IcapController& icap_ctl, Addr staging,
                            std::span<const std::uint32_t> words,
                            sim::SimTime deadline) {
  const Addr icap_data =
      icap_ctl.range().base + icap::IcapController::kDataReg;
  cpu::Ppc405& cpu = k.cpu();
  bus::Bus& plb = cpu.plb();
  sim::Simulation& sim = opb.simulation();
  const auto n = static_cast<std::int64_t>(words.size());
  // The closed form needs a word's timing to be independent of its data
  // and of anything but the clock and the two reservations: no fault can
  // strike, no trace or log line is owed per transaction, and no cache
  // state sits between the CPU and the stream.
  const Addr staging_last =
      staging + (words.empty() ? 0 : words.size() - 1) * 4;
  const bool closed_form =
      sim.faults() == nullptr && !sim.tracer().enabled() &&
      !sim.logger().enabled(sim::LogLevel::kTrace) &&
      !cpu.is_cacheable(staging) && !cpu.is_cacheable(staging_last) &&
      !cpu.is_cacheable(icap_data);
  sim::StatStep step;
  bool steady = false;  // the previous word repeated its start state

  // for (i = 0; i < n; ++i) { w = cfg[i]; HWICAP_DATA = w; }
  k.call();
  for (std::int64_t i = 0; i < n; ++i) {
    if (deadline.ps() > 0 && k.now() >= deadline) {
      return i;  // watchdog: abandon the stream mid-load
    }
    const LoopState before = loop_state(k, plb, opb);
    // A word after a steady one repeats it: record its stat change.
    const bool probe = closed_form && steady;
    if (probe) step.begin(sim.stats());
    const std::int64_t frames = icap_ctl.frames_written();
    const std::uint32_t w = k.lw(staging + static_cast<Addr>(i) * 4);
    k.sw(icap_data, w);
    k.op(2);  // index increment + compare
    k.branch();
    if (!closed_form) continue;

    // Steady state: the word took a whole number of every bus-side clock
    // period and left both reservations where it found them relative to
    // the CPU. Time is integer ps and every clock operation commutes with
    // a shift by whole periods, so each later word repeats this one
    // exactly, shifted by d.
    const LoopState after = loop_state(k, plb, opb);
    const SimTime d = after.now - before.now;
    steady = after.plb_lead == before.plb_lead &&
             after.opb_lead == before.opb_lead &&
             is_multiple(d, plb.clock()) && is_multiple(d, opb.clock()) &&
             is_multiple(d, icap_ctl.clock());
    // The ICAP counts its own frames when fed in bulk, so a probe that
    // completed a frame is not a template for the others.
    if (!probe || !steady || icap_ctl.frames_written() != frames ||
        !step.end()) {
      continue;
    }
    // Replay the remaining words in one step. Word j of them starts at
    // after.now + j*d; the watchdog gives up at the first start at or past
    // the deadline.
    std::int64_t m = n - i - 1;
    if (deadline.ps() > 0) {
      const std::int64_t late =
          deadline <= after.now
              ? 0
              : ((deadline - after.now).ps() + d.ps() - 1) / d.ps();
      m = std::min(m, late);
    }
    icap_ctl.feed(words.subspan(static_cast<std::size_t>(i + 1),
                                static_cast<std::size_t>(m)));
    step.repeat(m);
    plb.advance_reservation(d * m);
    opb.advance_reservation(d * m);
    cpu.idle_until(after.now + d * m);
    return i + 1 + m;
  }
  return n;
}

bool region_validates(const fabric::ConfigMemory& cm,
                      const fabric::DynamicRegion& region, int* behavior_id) {
  const int id = region.scan_signature(cm);
  if (id < 0) return false;
  const auto f = cm.frame(region.signature_frame());
  const std::uint32_t stored =
      f[static_cast<std::size_t>(region.signature_word() + 3)];
  if (stored != bitlinker::region_payload_hash(cm, region)) return false;
  *behavior_id = id;
  return true;
}

/// Record one reconfiguration span on the "RTR" track, tagged complete or
/// differential (the distinction §2.2 turns on), and bump the matching byte
/// counter so stat dumps attribute configuration traffic by flavour.
void account_reconfig(sim::Simulation& sim, bool differential,
                      const ReconfigStats& stats) {
  sim.stats()
      .counter(differential ? "reconfig.differential_bytes"
                            : "reconfig.complete_bytes")
      .add(stats.config_bytes);
  if (stats.watchdog) sim.stats().counter("reconfig.watchdog_aborts").add();
  trace::Tracer& tr = sim.tracer();
  if (tr.enabled()) {
    const int track = tr.track("RTR");
    tr.complete(track,
                differential ? "reconfig:differential" : "reconfig:complete",
                stats.started, stats.finished, "stream_words",
                stats.stream_words);
    if (const sim::RequestContext* rq = sim.active_request()) {
      // Link the ICAP/DMA transfer into the serving request's flow chain.
      tr.flow(trace::Phase::kFlowStep, track, "req", rq->id, stats.started);
    }
    if (stats.watchdog) {
      tr.instant(track, "reconfig:watchdog_abort", stats.finished);
    } else if (!stats.ok) {
      tr.instant(track, "reconfig:failed", stats.finished);
    }
  }
}

/// Stage a serialised stream in memory, drive it through the HWICAP with
/// the CPU, validate the region and bind the behaviour. Shared by the
/// component loads, the raw-configuration loads and the cached-plan
/// streaming loads. The span is read in place (cached word streams are
/// staged without a host-side copy); only an armed fault plan -- which has
/// to mutate the staged words -- forces a local copy.
template <typename Dock>
void stream_and_bind(std::span<const std::uint32_t> words, bus::Bus& mem_bus,
                     Addr staging, bus::Bus& opb,
                     icap::IcapController& icap_ctl, cpu::Kernel& kernel,
                     const fabric::ConfigMemory& fabric_state,
                     const fabric::DynamicRegion& region,
                     const hw::BehaviorRegistry& registry, Dock& dock,
                     std::unique_ptr<hw::HwModule>& slot,
                     ReconfigStats& stats, sim::SimTime deadline) {
  stats.stream_words = static_cast<std::int64_t>(words.size());
  std::vector<std::uint32_t> faulted;  // copy-on-fault only
  if (fault::FaultInjector* fi = mem_bus.simulation().faults()) {
    faulted.assign(words.begin(), words.end());
    fi->corrupt_staged(faulted, kernel.now());
    words = faulted;
  }

  // Configurations are prepared offline and already resident in external
  // memory (as in the paper's flow); staging them is a host operation.
  apps::store_words(mem_bus, staging, words);

  // Unbind before touching the fabric: the circuit is about to disappear.
  dock.unbind();
  slot.reset();

  cpu::Ppc405& cpu = kernel.cpu();
  const Addr icap_base = icap_ctl.range().base;
  // Reset the ICAP state machine.
  cpu.store32(icap_base + icap::IcapController::kControlReg, 1);
  const std::int64_t streamed =
      icap_load_loop(kernel, opb, icap_ctl, staging, words, deadline);
  if (streamed < stats.stream_words) {
    // Watchdog abort: the partial stream never reaches the done state; the
    // next load's ICAP reset discards it.
    stats.finished = kernel.now();
    stats.watchdog = true;
    stats.error = "watchdog: load deadline expired after " +
                  std::to_string(streamed) + "/" +
                  std::to_string(stats.stream_words) + " words";
    return;
  }
  const std::uint32_t status =
      cpu.load32(icap_base + icap::IcapController::kStatusReg);
  stats.finished = kernel.now();

  if (!(status & icap::IcapController::kStatusDone)) {
    stats.error = "ICAP did not complete (CRC or protocol error)";
    return;
  }
  int bound_id = -1;
  if (!region_validates(fabric_state, region, &bound_id)) {
    stats.error = "region signature/payload validation failed";
    return;
  }
  auto module = registry.create(bound_id);
  if (!module) {
    stats.error = "no behavioural model registered for id " +
                  std::to_string(bound_id);
    return;
  }
  slot = std::move(module);
  dock.bind(slot.get());
  stats.ok = true;
}

/// Shared implementation of the timed component load for both platforms.
template <typename Dock>
ReconfigStats do_load(hw::BehaviorId id, int dock_width,
                      bitlinker::BitLinker& linker, bus::Bus& mem_bus,
                      Addr staging, bus::Bus& opb,
                      icap::IcapController& icap_ctl, cpu::Kernel& kernel,
                      const fabric::ConfigMemory& fabric_state,
                      const fabric::DynamicRegion& region,
                      const hw::BehaviorRegistry& registry, Dock& dock,
                      std::unique_ptr<hw::HwModule>& slot,
                      sim::SimTime deadline) {
  ReconfigStats stats;
  stats.started = kernel.now();

  const auto comp = hw::component_for(id, dock_width);
  const auto linked = linker.link_single(comp);
  if (!linked.ok()) {
    stats.error = linked.errors.front();
    stats.finished = kernel.now();
    return stats;
  }
  stats.config_bytes = linked.stats.payload_bytes;
  const auto words = bitstream::serialize(*linked.config);
  stream_and_bind(std::span<const std::uint32_t>{words}, mem_bus, staging,
                  opb, icap_ctl, kernel, fabric_state, region, registry, dock,
                  slot, stats, deadline);
  account_reconfig(mem_bus.simulation(), /*differential=*/false, stats);
  return stats;
}

/// Shared implementation of the pre-encoded streaming load (cached plans;
/// also the tail of the raw-configuration load once it has serialised).
template <typename Dock>
ReconfigStats do_load_stream(std::span<const std::uint32_t> words,
                             std::int64_t config_bytes, bool differential,
                             bus::Bus& mem_bus, Addr staging, bus::Bus& opb,
                             icap::IcapController& icap_ctl,
                             cpu::Kernel& kernel,
                             const fabric::ConfigMemory& fabric_state,
                             const fabric::DynamicRegion& region,
                             const hw::BehaviorRegistry& registry, Dock& dock,
                             std::unique_ptr<hw::HwModule>& slot,
                             sim::SimTime deadline) {
  ReconfigStats stats;
  stats.started = kernel.now();
  stats.config_bytes = config_bytes;
  stream_and_bind(words, mem_bus, staging, opb, icap_ctl, kernel,
                  fabric_state, region, registry, dock, slot, stats, deadline);
  account_reconfig(mem_bus.simulation(), differential, stats);
  return stats;
}

/// Shared implementation of the raw-configuration load.
template <typename Dock>
ReconfigStats do_load_config(const bitstream::PartialConfig& cfg,
                             bus::Bus& mem_bus, Addr staging, bus::Bus& opb,
                             icap::IcapController& icap_ctl,
                             cpu::Kernel& kernel,
                             const fabric::ConfigMemory& fabric_state,
                             const fabric::DynamicRegion& region,
                             const hw::BehaviorRegistry& registry, Dock& dock,
                             std::unique_ptr<hw::HwModule>& slot,
                             sim::SimTime deadline) {
  const auto words = bitstream::serialize(cfg);
  return do_load_stream(std::span<const std::uint32_t>{words},
                        cfg.payload_bytes(),
                        /*differential=*/!cfg.is_complete_for(region), mem_bus,
                        staging, opb, icap_ctl, kernel, fabric_state, region,
                        registry, dock, slot, deadline);
}

}  // namespace detail

// --- Platform32 ----------------------------------------------------------------

Platform32::Platform32(PlatformOptions opts)
    : opts_(opts),
      faults_(arm_faults(opts_, sim_)),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(200))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(50))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      region_(fabric::DynamicRegion::xc2vp7_region()),
      fabric_(region_.device()),
      baseline_(region_.device()),
      registry_(hw::standard_registry(hw::bram_bits(region_.bram_blocks()))) {
  RTR_CHECK(opts_.dynamic_areas == 1,
            "the XC2VP7 hosts a single dynamic area (its strip already "
            "spans every BRAM-reachable column; use the 64-bit system)");
  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(kBramRange, bus_clk_, 8));
  sram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::sram_on_opb(kSramRange, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, kUartRange);
  gpio_ = std::make_unique<Gpio>(bus_clk_, kGpioRange);
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, kIcapRange,
                                                 fabric_);
  dock_ = std::make_unique<dock::OpbDock>(sim_, bus_clk_, kDockRange);
  linker_ = std::make_unique<bitlinker::BitLinker>(
      region_, busmacro::ConnectionInterface::for_width(32), baseline_);

  plb_.attach(kBramRange, *bram_);
  plb_.attach(kBridgeWindow, *bridge_);
  opb_.attach(kSramRange, *sram_);
  opb_.attach(kUartRange, *uart_);
  opb_.attach(kGpioRange, *gpio_);
  opb_.attach(kIcapRange, *icap_);
  opb_.attach(kDockRange, *dock_);

  std::vector<bus::AddressRange> cacheable;
  if (opts_.enable_dcache) cacheable.push_back(kSramRange);
  cpu_ = std::make_unique<cpu::Ppc405>(
      sim_, cpu_clk_, plb_, std::move(cacheable),
      cpu::Ppc405Params{.freq = Frequency::from_mhz(200)});
  kernel_ = std::make_unique<cpu::Kernel>(*cpu_);
}

ReconfigStats Platform32::load_module(hw::BehaviorId id) {
  return detail::do_load(id, 32, *linker_, opb_, kConfigStaging, opb_, *icap_,
                         *kernel_, fabric_, region_, registry_, *dock_,
                         module_, load_deadline_);
}

ReconfigStats Platform32::load_config(const bitstream::PartialConfig& cfg) {
  return detail::do_load_config(
      cfg, opb_, kConfigStaging, opb_, *icap_, *kernel_, fabric_,
      region_, registry_, *dock_, module_, load_deadline_);
}

ReconfigStats Platform32::load_stream(std::span<const std::uint32_t> words,
                                      std::int64_t config_bytes,
                                      bool differential, int area) {
  RTR_CHECK(area == 0, "XC2VP7: area index out of range");
  return detail::do_load_stream(
      words, config_bytes, differential, opb_, kConfigStaging, opb_,
      *icap_, *kernel_, fabric_,
      region_, registry_, *dock_, module_, load_deadline_);
}

void Platform32::unload() {
  dock_->unbind();
  module_.reset();
}

void Platform32::external_reset() {
  // Fabric configuration untouched: the configured circuit survives, its
  // flip-flop state restarts.
  icap_->reset();
  if (module_) module_->reset();
}

std::vector<ResourceRow> Platform32::resource_table() const {
  const auto dock_if = busmacro::ConnectionInterface::for_width(32);
  return {
      {"PPC405 core", {}, /*hard_block=*/true},
      {"JTAGPPC", jtag_.cost(), /*hard_block=*/true},
      {"PLB (64-bit) + arbiter", fabric::Resources{150, 230, 200, 0}, false},
      {"OPB (32-bit) + arbiter", fabric::Resources{80, 120, 100, 0}, false},
      {"PLB-OPB bridge", fabric::Resources{110, 170, 150, 0}, false},
      {"BRAM memory controller (PLB)", bram_->controller_cost(), false},
      {"External SRAM controller (OPB)", sram_->controller_cost(), false},
      {"UART", uart_->cost(), false},
      {"GPIO", gpio_->cost(), false},
      {"Reset block", reset_block_.cost(), false},
      {"OPB HWICAP", icap_->controller_cost(), false},
      {"OPB Dock (incl. bus macros)", dock_->cost() + dock_if.resources(),
       false},
  };
}

std::string Platform32::topology() const {
  std::ostringstream os;
  os << "32-bit system (XC2VP7-FG456-6), figure 3\n"
     << "  PPC405 @ 200 MHz\n"
     << "  PLB @ 50 MHz\n"
     << "    |- BRAM controller          " << std::hex << kBramRange.base
     << "\n"
     << "    |- PLB-OPB bridge\n"
     << "  OPB @ 50 MHz\n"
     << "    |- ext. SRAM (32 MB)        " << kSramRange.base << "\n"
     << "    |- UART                     " << kUartRange.base << "\n"
     << "    |- GPIO (LEDs/buttons)      " << kGpioRange.base << "\n"
     << "    |- OPB HWICAP -> ICAP       " << kIcapRange.base << "\n"
     << "    |- OPB Dock                 " << kDockRange.base << std::dec
     << "\n"
     << "  dynamic area: " << region_.rect().cols << "x" << region_.rect().rows
     << " CLBs, " << region_.bram_blocks() << " BRAMs ("
     << region_.slice_percent() << "% of slices)\n"
     << "  reset block, JTAGPPC\n";
  return os.str();
}

// --- Platform64 -----------------------------------------------------------------

Platform64::Platform64(PlatformOptions opts)
    : opts_(opts),
      faults_(arm_faults(opts_, sim_)),
      cpu_clk_(sim_.add_clock("cpu", Frequency::from_mhz(300))),
      bus_clk_(sim_.add_clock("bus", Frequency::from_mhz(100))),
      plb_(sim_, bus_clk_),
      opb_(sim_, bus_clk_),
      region_(fabric::DynamicRegion::xc2vp30_region()),
      fabric_(region_.device()),
      baseline_(region_.device()),
      // Task components own at most the 6 BRAMs they were designed with on
      // the 32-bit system -- they are reused unmodified (section 4.2).
      registry_(hw::standard_registry(hw::bram_bits(6))) {
  if (opts_.tracer) sim_.attach_tracer(*opts_.tracer);
  bridge_ = std::make_unique<bus::PlbOpbBridge>(opb_);
  bram_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::bram_on_plb(kBramRange, bus_clk_, 8));
  ddr_ = std::make_unique<mem::MemorySlave>(
      mem::MemorySlave::ddr_on_plb(kDdrRange, bus_clk_));
  uart_ = std::make_unique<Uart>(bus_clk_, kUartRange);
  icap_ = std::make_unique<icap::IcapController>(sim_, bus_clk_, kIcapRange,
                                                 fabric_);
  intc_ = std::make_unique<cpu::InterruptController>(bus_clk_, kIntcRange);
  dock_ = std::make_unique<dock::PlbDock>(sim_, bus_clk_, kDockRange,
                                          opts_.fifo_depth);
  dock_->set_irq(intc_.get(), kDockIrq);
  dma_ = std::make_unique<dma::DmaEngine>(sim_, plb_);
  linker_ = std::make_unique<bitlinker::BitLinker>(
      region_, busmacro::ConnectionInterface::for_width(64), baseline_);

  // Co-resident dynamic areas beyond the primary region: each gets its own
  // BitLinker (relocation anchors and bus-macro columns differ per area)
  // and module slot. xc2vp30_areas() checks the range and the pairwise
  // column-disjointness that lets the areas reconfigure independently.
  const auto areas = fabric::DynamicRegion::xc2vp30_areas(opts_.dynamic_areas);
  // The linkers hold pointers into extra_areas_: reserve once so later
  // push_backs cannot reallocate under them.
  extra_areas_.reserve(areas.size() - 1);
  for (std::size_t i = 1; i < areas.size(); ++i) {
    extra_areas_.push_back(areas[i]);
    extra_linkers_.push_back(std::make_unique<bitlinker::BitLinker>(
        extra_areas_.back(), busmacro::ConnectionInterface::for_width(64),
        baseline_));
    extra_modules_.emplace_back();
  }
  area_gens_.assign(static_cast<std::size_t>(area_count()), 0);

  plb_.attach(kDdrRange, *ddr_);
  plb_.attach(kBramRange, *bram_);
  plb_.attach(kDockRange, *dock_);
  plb_.attach(kBridgeWindow, *bridge_);
  opb_.attach(kUartRange, *uart_);
  opb_.attach(kIcapRange, *icap_);
  opb_.attach(kIntcRange, *intc_);

  std::vector<bus::AddressRange> cacheable;
  if (opts_.enable_dcache) cacheable.push_back(kDdrRange);
  cpu_ = std::make_unique<cpu::Ppc405>(
      sim_, cpu_clk_, plb_, std::move(cacheable),
      cpu::Ppc405Params{.freq = Frequency::from_mhz(300)});
  kernel_ = std::make_unique<cpu::Kernel>(*cpu_);
}

ReconfigStats Platform64::load_module(hw::BehaviorId id) {
  sync_area_gens();
  const ReconfigStats stats = detail::do_load(
      id, 64, *linker_, plb_, kConfigStaging, opb_, *icap_, *kernel_, fabric_,
      region_, registry_, *dock_, module_, load_deadline_);
  note_fabric_write(0);
  if (stats.stream_words > 0) active_area_ = stats.ok ? 0 : -1;
  return stats;
}

ReconfigStats Platform64::load_config(const bitstream::PartialConfig& cfg) {
  sync_area_gens();
  const ReconfigStats stats = detail::do_load_config(
      cfg, plb_, kConfigStaging, opb_, *icap_, *kernel_, fabric_,
      region_, registry_, *dock_, module_, load_deadline_);
  note_fabric_write(0);
  if (stats.stream_words > 0) active_area_ = stats.ok ? 0 : -1;
  return stats;
}

ReconfigStats Platform64::load_stream(std::span<const std::uint32_t> words,
                                      std::int64_t config_bytes,
                                      bool differential, int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "load_stream: bad area");
  sync_area_gens();
  const ReconfigStats stats = detail::do_load_stream(
      words, config_bytes, differential, plb_, kConfigStaging, opb_,
      *icap_, *kernel_, fabric_,
      region(area), registry_, *dock_, slot(area), load_deadline_);
  note_fabric_write(area);
  // The dock unbinds before the fabric is touched and only a successful
  // load re-binds, so on failure no area is active.
  active_area_ = stats.ok ? area : -1;
  return stats;
}

const fabric::DynamicRegion& Platform64::region(int area) const {
  RTR_CHECK(area >= 0 && area < area_count(), "region: bad area");
  return area == 0 ? region_
                   : extra_areas_[static_cast<std::size_t>(area - 1)];
}

bitlinker::BitLinker& Platform64::linker(int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "linker: bad area");
  return area == 0 ? *linker_
                   : *extra_linkers_[static_cast<std::size_t>(area - 1)];
}

hw::HwModule* Platform64::area_module(int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "area_module: bad area");
  return slot(area).get();
}

void Platform64::activate_area(int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "activate_area: bad area");
  if (area == active_area_) return;
  RTR_CHECK(slot(area) != nullptr, "activate_area: area hosts no module");
  // Cross-area activation: re-select the dock's bus-macro mux and let the
  // target circuit reset (bind() resets it) -- a register write plus
  // settle, orders of magnitude below any reconfiguration.
  kernel_->op(8);
  dock_->unbind();
  dock_->bind(slot(area).get());
  active_area_ = area;
}

std::uint64_t Platform64::area_generation(int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "area_generation: bad area");
  sync_area_gens();
  return area_gens_[static_cast<std::size_t>(area)];
}

void Platform64::note_fabric_write(int area) {
  if (fabric_.generation() == fabric_gen_seen_) return;  // nothing written
  if (faults_ != nullptr) {
    // A corrupted stream word can carry a frame address outside the target
    // area's columns: attribute conservatively to every area.
    for (std::uint64_t& g : area_gens_) g = ++area_gen_tick_;
  } else {
    area_gens_[static_cast<std::size_t>(area)] = ++area_gen_tick_;
  }
  fabric_gen_seen_ = fabric_.generation();
}

void Platform64::sync_area_gens() {
  if (fabric_.generation() == fabric_gen_seen_) return;
  for (std::uint64_t& g : area_gens_) g = ++area_gen_tick_;
  fabric_gen_seen_ = fabric_.generation();
}

ReconfigStats Platform64::load_module_dma(hw::BehaviorId id) {
  const auto comp = hw::component_for(id, 64);
  const auto linked = linker_->link_single(comp);
  if (!linked.ok()) {
    ReconfigStats stats;
    stats.started = kernel_->now();
    stats.error = linked.errors.front();
    stats.finished = kernel_->now();
    return stats;
  }
  const auto words = bitstream::serialize(*linked.config);
  return load_stream_dma(words, linked.stats.payload_bytes,
                         /*differential=*/false);
}

ReconfigStats Platform64::load_stream_dma(std::span<const std::uint32_t> words,
                                          std::int64_t config_bytes,
                                          bool differential, int area) {
  RTR_CHECK(area >= 0 && area < area_count(), "load_stream_dma: bad area");
  sync_area_gens();
  ReconfigStats stats;
  stats.started = kernel_->now();
  stats.config_bytes = config_bytes;
  if (load_deadline_.ps() > 0 && stats.started >= load_deadline_) {
    // Aborted before the dock unbinds or the fabric is touched: whatever
    // circuit was active stays active.
    stats.finished = stats.started;
    stats.watchdog = true;
    stats.error = "watchdog: load deadline already expired at DMA issue";
    detail::account_reconfig(sim_, differential, stats);
    return stats;
  }
  // Every exit past the unbind below goes through here: the dock re-binds
  // only on success, so on failure no area is active.
  const auto finish = [&]() -> ReconfigStats {
    note_fabric_write(area);
    active_area_ = stats.ok ? area : -1;
    detail::account_reconfig(sim_, differential, stats);
    return stats;
  };

  // The 64-bit DMA engine moves whole beats: an odd word count needs a pad
  // word, and an armed fault plan mutates the staged stream -- both force a
  // local copy. Even-sized fault-free streams (every cached plan, padded at
  // build time or naturally even) go straight from the span to staging.
  std::vector<std::uint32_t> local;
  if (words.size() % 2 != 0 || faults_ != nullptr) {
    local.assign(words.begin(), words.end());
    if (local.size() % 2 != 0) local.push_back(bitstream::kDummyWord);
    if (faults_) faults_->corrupt_staged(local, kernel_->now());
    words = local;
  }
  stats.stream_words = static_cast<std::int64_t>(words.size());
  apps::store_words(plb_, kConfigStaging, words);

  dock_->unbind();
  slot(area).reset();

  cpu_->store32(kIcapRange.base + icap::IcapController::kControlReg, 1);
  // One scatter-gather descriptor: staging -> HWICAP data window (fixed
  // destination; the bridge splits each 64-bit beat into two data words).
  kernel_->op(30);  // descriptor setup
  const dma::DmaDescriptor d{kConfigStaging,
                             kIcapRange.base + icap::IcapController::kDataReg,
                             static_cast<std::uint64_t>(words.size()) * 4,
                             true, false};
  const sim::SimTime done = dma_->run_one(d, kernel_->now());
  if (load_deadline_.ps() > 0 && done > load_deadline_) {
    // The completion interrupt would arrive after the deadline: the watchdog
    // fires instead, the CPU abandons the wait and the partial stream is
    // discarded by the next load's ICAP reset.
    cpu_->idle_until(load_deadline_);
    stats.finished = kernel_->now();
    stats.watchdog = true;
    stats.error = "watchdog: DMA reconfiguration missed the load deadline";
    return finish();
  }
  dock_->signal_done(done);
  cpu_->take_interrupt(intc_->assertion_time(kDockIrq));
  (void)cpu_->load32(kIntcRange.base + cpu::InterruptController::kStatusReg);
  cpu_->store32(kIntcRange.base + cpu::InterruptController::kAckReg,
                1u << kDockIrq);
  intc_->clear(kDockIrq);

  const std::uint32_t status =
      cpu_->load32(kIcapRange.base + icap::IcapController::kStatusReg);
  stats.finished = kernel_->now();
  if (!(status & icap::IcapController::kStatusDone)) {
    stats.error = "ICAP did not complete (CRC or protocol error)";
    return finish();
  }
  int bound_id = -1;
  if (!detail::region_validates(fabric_, region(area), &bound_id)) {
    stats.error = "region signature/payload validation failed";
    return finish();
  }
  auto module = registry_.create(bound_id);
  if (!module) {
    stats.error = "no behavioural model registered for id " +
                  std::to_string(bound_id);
    return finish();
  }
  slot(area) = std::move(module);
  dock_->bind(slot(area).get());
  stats.ok = true;
  return finish();
}

void Platform64::unload() {
  dock_->unbind();
  module_.reset();
  for (auto& m : extra_modules_) m.reset();
  active_area_ = -1;
}

void Platform64::external_reset() {
  icap_->reset();
  if (module_) module_->reset();
  for (auto& m : extra_modules_) {
    if (m) m->reset();
  }
}

std::vector<ResourceRow> Platform64::resource_table() const {
  const auto dock_if = busmacro::ConnectionInterface::for_width(64);
  return {
      {"PPC405 core 0 (used)", {}, /*hard_block=*/true},
      {"PPC405 core 1 (unused)", {}, /*hard_block=*/true},
      {"JTAGPPC", jtag_.cost(), /*hard_block=*/true},
      {"PLB (64-bit) + arbiter", fabric::Resources{170, 260, 220, 0}, false},
      {"OPB (32-bit) + arbiter", fabric::Resources{80, 120, 100, 0}, false},
      {"PLB-OPB bridge", fabric::Resources{110, 170, 150, 0}, false},
      {"BRAM memory controller (PLB)", bram_->controller_cost(), false},
      {"DDR controller (PLB)", ddr_->controller_cost(), false},
      {"UART", uart_->cost(), false},
      {"Interrupt controller (OPB)", intc_->controller_cost(), false},
      {"Reset block", reset_block_.cost(), false},
      {"OPB HWICAP", icap_->controller_cost(), false},
      {"PLB Dock (DMA + FIFO + irq, incl. bus macros)",
       dock_->cost() + dock_if.resources(), false},
  };
}

std::string Platform64::topology() const {
  std::ostringstream os;
  os << "64-bit system (XC2VP30-FF896-7), figure 4\n"
     << "  PPC405 @ 300 MHz (second core unused)\n"
     << "  PLB @ 100 MHz\n"
     << "    |- DDR (512 MB)             " << std::hex << kDdrRange.base
     << "\n"
     << "    |- BRAM controller          " << kBramRange.base << "\n"
     << "    |- PLB Dock (DMA+FIFO+irq)  " << kDockRange.base << "\n"
     << "    |- PLB-OPB bridge\n"
     << "  OPB @ 100 MHz\n"
     << "    |- UART                     " << kUartRange.base << "\n"
     << "    |- OPB HWICAP -> ICAP       " << kIcapRange.base << "\n"
     << "    |- interrupt controller     " << kIntcRange.base << std::dec
     << "\n"
     << "  dynamic area: " << region_.rect().cols << "x" << region_.rect().rows
     << " CLBs, " << region_.bram_blocks() << " BRAMs ("
     << region_.slice_percent() << "% of slices)\n";
  for (const auto& extra : extra_areas_) {
    os << "  dynamic area (" << extra.name() << "): " << extra.rect().cols
       << "x" << extra.rect().rows << " CLBs, " << extra.bram_blocks()
       << " BRAMs (" << extra.slice_percent() << "% of slices)\n";
  }
  os << "  reset block, JTAGPPC\n";
  return os.str();
}

}  // namespace rtr
