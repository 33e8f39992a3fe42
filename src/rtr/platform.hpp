// The public platform API: the paper's two systems, fully assembled.
//
//   Platform32 -- section 3: XC2VP7, CPU 200 MHz, PLB+OPB at 50 MHz,
//                 32 MB SRAM and the dock on the OPB (behind the bridge),
//                 OPB Dock, UART, GPIO, HWICAP, reset block, JTAGPPC.
//   Platform64 -- section 4: XC2VP30, CPU 300 MHz, buses at 100 MHz,
//                 512 MB DDR and the PLB Dock (DMA + output FIFO +
//                 interrupt generator) on the PLB; UART, HWICAP and the
//                 interrupt controller on the OPB; no GPIO.
//
// A platform owns the whole simulation and exposes the developer-facing
// operations: timed module loading through the ICAP (with signature and
// payload-hash validation before any behaviour is bound), the dock
// addresses for programmed I/O, the DMA engine (64-bit system), resource
// reports (tables 1 and 6) and topology dumps (figures 1/3/4).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bitlinker/bitlinker.hpp"
#include "bus/bridge.hpp"
#include "bus/bus.hpp"
#include "cpu/intc.hpp"
#include "cpu/kernel.hpp"
#include "cpu/ppc405.hpp"
#include "dma/dma.hpp"
#include "dock/opb_dock.hpp"
#include "dock/plb_dock.hpp"
#include "fabric/dynamic_region.hpp"
#include "fault/fault.hpp"
#include "hw/library.hpp"
#include "icap/icap.hpp"
#include "mem/memory_slave.hpp"
#include "rtr/peripherals.hpp"
#include "sim/check.hpp"

namespace rtr {

/// Outcome of a timed module load.
struct ReconfigStats {
  bool ok = false;
  bool watchdog = false;  // aborted by the load deadline, not by the device
  std::string error;
  sim::SimTime started;
  sim::SimTime finished;
  std::int64_t stream_words = 0;  // bitstream words pushed through HWICAP
  std::int64_t config_bytes = 0;  // frame payload bytes

  [[nodiscard]] sim::SimTime duration() const { return finished - started; }
};

/// One line of a resource-usage report (tables 1 and 6).
struct ResourceRow {
  std::string module;
  fabric::Resources res;
  bool hard_block = false;  // PPC405 / JTAGPPC: no fabric resources
};

struct PlatformOptions {
  /// The embedded software of the modelled systems runs with the data cache
  /// disabled (the measured trends of the paper -- "the results follow the
  /// trends observed for the transfer times" -- require every software data
  /// access to pay the bus). Enable for the cache ablation study.
  bool enable_dcache = false;
  /// Output FIFO depth of the PLB dock (64-bit system only).
  int fifo_depth = dock::PlbDock::kDefaultFifoDepth;
  /// Scheduled faults along the reconfiguration path (storage, ICAP, DMA,
  /// bus, readback). See fault/fault.hpp for sites, triggers and seeding.
  fault::FaultPlan fault_plan;
  /// CLI-compat shim for fault_plan: when >= 0, equivalent to adding
  /// "storage:stuck@0" with word=index, mask=0x0100 -- the staged
  /// configuration's word at this index gets bit 8 flipped before every
  /// load (storage corruption; the ICAP's CRC must catch it). Prefer
  /// fault_plan for new code.
  std::int64_t corrupt_config_word = -1;
  /// External tracer to record against (CLI --trace-out, benches, examples).
  /// When null the simulation uses its own disabled instance; the tracer
  /// must outlive the platform.
  trace::Tracer* tracer = nullptr;
  /// Co-resident dynamic areas the device exposes (docs/PLACEMENT.md).
  /// Area 0 is always the legacy region, so 1 keeps the pre-multi-area
  /// platform bit for bit. The 64-bit system hosts up to
  /// fabric::DynamicRegion::kMaxAreasXc2vp30; the 32-bit device has no
  /// column-disjoint room for a second area and requires 1.
  int dynamic_areas = 1;
};

namespace detail {
/// Timed inner loop of the reconfiguration driver: the CPU fetches each
/// bitstream word of `words` (already staged at `staging`) from memory and
/// stores it to the data register of `icap_ctl`, which sits on `opb`. A
/// non-zero `deadline` arms the serving layer's watchdog: the loop checks
/// the clock between words and bails out once the deadline has passed.
/// Returns the number of words actually streamed (== words.size() when the
/// whole bitstream went through).
///
/// Once the loop reaches its steady state -- one word's timing repeats
/// exactly, shifted by its duration -- the rest of the stream is applied in
/// one step with the same simulated result (docs/PERFORMANCE.md,
/// "Closed-form reconfiguration streaming"). Fault injection, tracing,
/// trace-level logging and a cacheable staging area keep the per-word loop
/// for the whole stream.
std::int64_t icap_load_loop(cpu::Kernel& k, bus::Bus& opb,
                            icap::IcapController& icap_ctl, bus::Addr staging,
                            std::span<const std::uint32_t> words,
                            sim::SimTime deadline = {});
/// Signature + payload-hash validation (runs after the ICAP reports done).
bool region_validates(const fabric::ConfigMemory& cm,
                      const fabric::DynamicRegion& region, int* behavior_id);
/// Trace span + per-flavour byte counter for one finished reconfiguration.
void account_reconfig(sim::Simulation& sim, bool differential,
                      const ReconfigStats& stats);
}  // namespace detail

// ---------------------------------------------------------------------------

class Platform32 {
 public:
  // Memory map.
  static constexpr bus::AddressRange kBramRange{0x0000'0000, 16 << 10};
  static constexpr bus::AddressRange kBridgeWindow{0x2000'0000, 0x3000'0000};
  static constexpr bus::AddressRange kSramRange{0x2000'0000, 32u << 20};
  static constexpr bus::AddressRange kUartRange{0x4060'0000, 0x100};
  static constexpr bus::AddressRange kGpioRange{0x4080'0000, 0x100};
  static constexpr bus::AddressRange kIcapRange{0x4100'0000, 0x1000};
  static constexpr bus::AddressRange kDockRange{0x4200'0000, 0x1'0000};
  /// Where prepared configurations live in external memory.
  static constexpr bus::Addr kConfigStaging = kSramRange.base + (24u << 20);

  explicit Platform32(PlatformOptions opts = {});

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] cpu::Ppc405& cpu() { return *cpu_; }
  [[nodiscard]] cpu::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] dock::OpbDock& dock() { return *dock_; }
  [[nodiscard]] mem::MemorySlave& ext_mem() { return *sram_; }
  [[nodiscard]] Uart& uart() { return *uart_; }
  [[nodiscard]] Gpio& gpio() { return *gpio_; }
  [[nodiscard]] icap::IcapController& icap_ctl() { return *icap_; }
  /// The OPB (the HWICAP's bus); the PLB is cpu().plb().
  [[nodiscard]] bus::OpbBus& opb() { return opb_; }
  [[nodiscard]] const fabric::DynamicRegion& region() const { return region_; }
  [[nodiscard]] bitlinker::BitLinker& linker() { return *linker_; }
  [[nodiscard]] const fabric::ConfigMemory& fabric_state() const { return fabric_; }
  /// The armed fault injector, or null when the options carried no plan.
  [[nodiscard]] fault::FaultInjector* faults() { return faults_.get(); }

  /// Arm (or, with SimTime::zero(), disarm) a watchdog deadline for the
  /// following loads: a reconfiguration still streaming at `t` is aborted
  /// with a typed watchdog error instead of running to completion. The
  /// serving layer's defence against hung ICAP/DMA operations.
  void set_load_deadline(sim::SimTime t) { load_deadline_ = t; }
  [[nodiscard]] sim::SimTime load_deadline() const { return load_deadline_; }

  /// Dock data register address (32-bit programmed I/O).
  [[nodiscard]] static constexpr bus::Addr dock_data() {
    return kDockRange.base + dock::OpbDock::kDataReg;
  }

  /// Link `id`'s component, stage its bitstream in external memory, stream
  /// it through the HWICAP with the CPU (timed), validate, and bind the
  /// behaviour to the dock.
  ReconfigStats load_module(hw::BehaviorId id);

  /// Load a raw partial configuration (e.g. a differential one prepared by
  /// the ModuleManager). The same validation gate applies: the behaviour is
  /// bound only when the resulting region carries a coherent signature and
  /// payload hash.
  ReconfigStats load_config(const bitstream::PartialConfig& cfg);

  /// Zero-copy streaming load of a pre-encoded ICAP word stream (a cached
  /// reconfiguration plan): same staging, watchdog, fault-injection and
  /// validation behaviour as load_config, without re-serialising -- and
  /// without copying the stream unless a fault plan has to mutate it.
  /// `config_bytes` and `differential` only feed accounting (the stats
  /// counters and the trace span flavour). `area` must be 0 (single-area
  /// device); the parameter keeps the per-area load signature uniform for
  /// the ModuleManager.
  ReconfigStats load_stream(std::span<const std::uint32_t> words,
                            std::int64_t config_bytes, bool differential,
                            int area = 0);

  /// Invalidate generation-tagged assumptions about the fabric (cached
  /// differential plans) without altering its content. Used by the
  /// ModuleManager on invalidate() and on fault detection.
  void bump_fabric_generation() { fabric_.bump_generation(); }

  /// Area-scoped variant: with a single area a failure scoped to it is a
  /// failure scoped to the whole fabric, so this is the same invalidation.
  void bump_area_generation(int area) {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
    bump_fabric_generation();
  }

  // --- multi-area surface (always a single area on this system) ----------
  // The ModuleManager drives every platform through this per-area API; on
  // the XC2VP7 it degenerates to the legacy single-region behaviour (see
  // fabric::DynamicRegion::xc2vp7_areas for why a second area cannot
  // exist). With one area the global ConfigMemory generation *is* the
  // area's generation.
  [[nodiscard]] int area_count() const { return 1; }
  [[nodiscard]] const fabric::DynamicRegion& region(int area) const {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
    return region_;
  }
  [[nodiscard]] bitlinker::BitLinker& linker(int area) {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
    return *linker_;
  }
  [[nodiscard]] hw::HwModule* area_module(int area) {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
    return module_.get();
  }
  [[nodiscard]] int active_area() const { return 0; }
  void activate_area(int area) {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
  }
  [[nodiscard]] std::uint64_t area_generation(int area) const {
    RTR_CHECK(area == 0, "XC2VP7: area index out of range");
    return fabric_.generation();
  }

  void unload();
  [[nodiscard]] hw::HwModule* active_module() { return module_.get(); }

  /// External reset: CPU and peripherals restart; the fabric configuration
  /// -- and thus the loaded module's circuit -- is untouched.
  void external_reset();

  [[nodiscard]] std::vector<ResourceRow> resource_table() const;
  [[nodiscard]] std::string topology() const;

 private:
  PlatformOptions opts_;
  sim::Simulation sim_;
  std::unique_ptr<fault::FaultInjector> faults_;
  sim::Clock& cpu_clk_;
  sim::Clock& bus_clk_;
  bus::PlbBus plb_;
  bus::OpbBus opb_;
  std::unique_ptr<bus::PlbOpbBridge> bridge_;
  std::unique_ptr<mem::MemorySlave> bram_;
  std::unique_ptr<mem::MemorySlave> sram_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<Gpio> gpio_;
  fabric::DynamicRegion region_;
  fabric::ConfigMemory fabric_;
  fabric::ConfigMemory baseline_;
  std::unique_ptr<icap::IcapController> icap_;
  std::unique_ptr<dock::OpbDock> dock_;
  std::unique_ptr<bitlinker::BitLinker> linker_;
  hw::BehaviorRegistry registry_;
  std::unique_ptr<cpu::Ppc405> cpu_;
  std::unique_ptr<cpu::Kernel> kernel_;
  std::unique_ptr<hw::HwModule> module_;
  sim::SimTime load_deadline_{};
  ResetBlock reset_block_;
  JtagPpc jtag_;
};

// ---------------------------------------------------------------------------

class Platform64 {
 public:
  // Memory map.
  static constexpr bus::AddressRange kDdrRange{0x0000'0000, 512u << 20};
  static constexpr bus::AddressRange kBramRange{0x6000'0000, 16 << 10};
  static constexpr bus::AddressRange kDockRange{0x7400'0000, 0x1'0000};
  static constexpr bus::AddressRange kBridgeWindow{0x4000'0000, 0x0200'0000};
  static constexpr bus::AddressRange kUartRange{0x4060'0000, 0x100};
  static constexpr bus::AddressRange kIcapRange{0x4100'0000, 0x1000};
  static constexpr bus::AddressRange kIntcRange{0x4120'0000, 0x1000};
  static constexpr bus::Addr kConfigStaging = kDdrRange.base + (256u << 20);
  /// Interrupt line of the PLB dock / DMA completion.
  static constexpr int kDockIrq = 2;

  explicit Platform64(PlatformOptions opts = {});

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] cpu::Ppc405& cpu() { return *cpu_; }
  [[nodiscard]] cpu::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] dock::PlbDock& dock() { return *dock_; }
  [[nodiscard]] mem::MemorySlave& ext_mem() { return *ddr_; }
  [[nodiscard]] Uart& uart() { return *uart_; }
  [[nodiscard]] icap::IcapController& icap_ctl() { return *icap_; }
  /// The OPB (the HWICAP's bus); the PLB is cpu().plb().
  [[nodiscard]] bus::OpbBus& opb() { return opb_; }
  [[nodiscard]] cpu::InterruptController& intc() { return *intc_; }
  [[nodiscard]] dma::DmaEngine& dma() { return *dma_; }
  [[nodiscard]] const fabric::DynamicRegion& region() const { return region_; }
  [[nodiscard]] bitlinker::BitLinker& linker() { return *linker_; }
  [[nodiscard]] const fabric::ConfigMemory& fabric_state() const { return fabric_; }
  /// See Platform32::faults.
  [[nodiscard]] fault::FaultInjector* faults() { return faults_.get(); }

  /// See Platform32::set_load_deadline. On this platform the DMA load path
  /// honours the same deadline (checked at issue and at completion).
  void set_load_deadline(sim::SimTime t) { load_deadline_ = t; }
  [[nodiscard]] sim::SimTime load_deadline() const { return load_deadline_; }

  [[nodiscard]] static constexpr bus::Addr dock_data() {
    return kDockRange.base + dock::PlbDock::kPioData;
  }
  [[nodiscard]] static constexpr bus::Addr dock_stream() {
    return kDockRange.base + dock::PlbDock::kStream;
  }
  [[nodiscard]] static constexpr bus::Addr dock_fifo() {
    return kDockRange.base + dock::PlbDock::kFifoPop;
  }

  ReconfigStats load_module(hw::BehaviorId id);

  /// See Platform32::load_config.
  ReconfigStats load_config(const bitstream::PartialConfig& cfg);

  /// See Platform32::load_stream. `area` selects the dynamic area the
  /// stream targets (the caller must have linked it against that area's
  /// BitLinker); a successful load makes that area the active one.
  ReconfigStats load_stream(std::span<const std::uint32_t> words,
                            std::int64_t config_bytes, bool differential,
                            int area = 0);

  /// See Platform32::bump_fabric_generation. Also moves every area's
  /// generation: an external invalidation cannot be attributed to one area.
  void bump_fabric_generation() {
    fabric_.bump_generation();
    for (std::uint64_t& g : area_gens_) g = ++area_gen_tick_;
    fabric_gen_seen_ = fabric_.generation();
  }

  /// Invalidate one area's generation tag. A failure during a load can
  /// only have touched the target area's columns (the stream is linked
  /// against that area's region; corrupted frame addresses are handled by
  /// the fault-aware attribution in note_fabric_write), so a co-resident
  /// area's differential base stays valid. The device-wide fabric
  /// generation still moves so complete-plan tags warmed before the
  /// failure are re-validated.
  void bump_area_generation(int area) {
    RTR_CHECK(area >= 0 && area < area_count(),
              "bump_area_generation: bad area");
    fabric_.bump_generation();
    area_gens_[static_cast<std::size_t>(area)] = ++area_gen_tick_;
    fabric_gen_seen_ = fabric_.generation();
  }

  // --- multi-area surface -------------------------------------------------
  // With opts.dynamic_areas == 2 the device hosts the primary region and
  // the column-disjoint xc2vp30_region_b as independent dynamic areas,
  // each with its own BitLinker (relocation targets differ per area),
  // module slot and generation tag. One dock serves the device; loading or
  // activating an area re-binds it. See docs/PLACEMENT.md.
  [[nodiscard]] int area_count() const {
    return 1 + static_cast<int>(extra_areas_.size());
  }
  [[nodiscard]] const fabric::DynamicRegion& region(int area) const;
  [[nodiscard]] bitlinker::BitLinker& linker(int area);
  [[nodiscard]] hw::HwModule* area_module(int area);
  /// Area the dock is bound to; -1 right after a failed load (the dock
  /// unbinds before any fabric write and a failed load never re-binds).
  [[nodiscard]] int active_area() const { return active_area_; }
  /// Re-bind the dock to `area`'s already-resident module: bus-macro mux
  /// re-select plus a circuit reset -- a few CPU ops, no reconfiguration.
  void activate_area(int area);
  /// Per-area generation tag: moves when `area`'s columns may have been
  /// written (its own loads; any fabric write outside a load path, which
  /// cannot be attributed and conservatively moves every area). Cached
  /// differentials against this area validate against it; a missed
  /// staleness is still caught by the signature/payload gate.
  [[nodiscard]] std::uint64_t area_generation(int area);

  /// Extension: DMA-driven reconfiguration. The scatter-gather engine
  /// streams the staged bitstream straight into the HWICAP data window
  /// (64-bit beats split by the bridge), freeing the CPU; completion is
  /// signalled by interrupt. Approaches the ICAP throughput bound.
  ReconfigStats load_module_dma(hw::BehaviorId id);

  /// The DMA path for a pre-encoded stream (cached plan): identical
  /// deadline, padding, fault-injection and interrupt behaviour to
  /// load_module_dma, minus the link/encode work. `area` as load_stream.
  ReconfigStats load_stream_dma(std::span<const std::uint32_t> words,
                                std::int64_t config_bytes, bool differential,
                                int area = 0);

  void unload();
  [[nodiscard]] hw::HwModule* active_module() {
    return active_area_ < 0 ? nullptr : slot(active_area_).get();
  }

  void external_reset();

  [[nodiscard]] std::vector<ResourceRow> resource_table() const;
  [[nodiscard]] std::string topology() const;

 private:
  PlatformOptions opts_;
  sim::Simulation sim_;
  std::unique_ptr<fault::FaultInjector> faults_;
  sim::Clock& cpu_clk_;
  sim::Clock& bus_clk_;
  bus::PlbBus plb_;
  bus::OpbBus opb_;
  std::unique_ptr<bus::PlbOpbBridge> bridge_;
  std::unique_ptr<mem::MemorySlave> bram_;
  std::unique_ptr<mem::MemorySlave> ddr_;
  std::unique_ptr<Uart> uart_;
  fabric::DynamicRegion region_;
  fabric::ConfigMemory fabric_;
  fabric::ConfigMemory baseline_;
  std::unique_ptr<icap::IcapController> icap_;
  std::unique_ptr<cpu::InterruptController> intc_;
  std::unique_ptr<dock::PlbDock> dock_;
  std::unique_ptr<dma::DmaEngine> dma_;
  std::unique_ptr<bitlinker::BitLinker> linker_;
  hw::BehaviorRegistry registry_;
  std::unique_ptr<cpu::Ppc405> cpu_;
  std::unique_ptr<cpu::Kernel> kernel_;
  std::unique_ptr<hw::HwModule> module_;
  sim::SimTime load_deadline_{};
  ResetBlock reset_block_;
  JtagPpc jtag_;

  // Multi-area state. Area 0 lives in region_/linker_/module_ (so the
  // single-area layout is untouched); areas 1.. in the extra_* vectors.
  [[nodiscard]] std::unique_ptr<hw::HwModule>& slot(int area) {
    return area == 0 ? module_
                     : extra_modules_[static_cast<std::size_t>(area - 1)];
  }
  /// Attribute fabric writes since the last load path to `area` (or to all
  /// areas when a fault plan may have corrupted frame addressing).
  void note_fabric_write(int area);
  /// Fold in writes that happened outside any load path: they cannot be
  /// attributed to one area, so every area's generation moves.
  void sync_area_gens();
  std::vector<fabric::DynamicRegion> extra_areas_;
  std::vector<std::unique_ptr<bitlinker::BitLinker>> extra_linkers_;
  std::vector<std::unique_ptr<hw::HwModule>> extra_modules_;
  int active_area_ = 0;
  std::vector<std::uint64_t> area_gens_;
  std::uint64_t area_gen_tick_ = 0;
  std::uint64_t fabric_gen_seen_ = 0;
};

}  // namespace rtr
