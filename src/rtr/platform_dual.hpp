// Extension platform: the 64-bit system with TWO separate dynamic areas.
//
// Section 4.1 observes that "the use of the remaining free slices is made
// more difficult by the presence of the second CPU core and alternative
// approaches (like having two separate dynamic areas) may be necessary to
// put them to use". This platform realises that alternative: the primary
// 32x24 region plus a second 24x12 region on the right edge, each with its
// own PLB dock, interrupt line and BitLinker. The regions are
// column-disjoint -- a hard requirement, since configuration frames span
// full columns and column-sharing regions would overwrite each other on
// every load (verified at construction).
//
// Both regions are configured through the single ICAP (there is only one
// configuration port), so reconfigurations serialise; operation of loaded
// modules is fully concurrent.
#pragma once

#include <memory>

#include "rtr/platform.hpp"

namespace rtr {

class Platform64Dual {
 public:
  static constexpr int kRegions = 2;

  // Memory map: as Platform64, plus the second dock.
  static constexpr bus::AddressRange kDdrRange = Platform64::kDdrRange;
  static constexpr bus::AddressRange kDockARange = Platform64::kDockRange;
  static constexpr bus::AddressRange kDockBRange{0x7500'0000, 0x1'0000};
  static constexpr bus::AddressRange kIcapRange = Platform64::kIcapRange;
  static constexpr bus::AddressRange kIntcRange = Platform64::kIntcRange;
  static constexpr bus::AddressRange kUartRange = Platform64::kUartRange;
  static constexpr bus::AddressRange kBramRange = Platform64::kBramRange;
  static constexpr bus::AddressRange kBridgeWindow = Platform64::kBridgeWindow;
  static constexpr bus::Addr kConfigStagingA = Platform64::kConfigStaging;
  static constexpr bus::Addr kConfigStagingB =
      Platform64::kConfigStaging + (64u << 20);
  static constexpr int kDockAIrq = 2;
  static constexpr int kDockBIrq = 3;

  explicit Platform64Dual(PlatformOptions opts = {});

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] cpu::Ppc405& cpu() { return *cpu_; }
  [[nodiscard]] cpu::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] mem::MemorySlave& ext_mem() { return *ddr_; }
  [[nodiscard]] cpu::InterruptController& intc() { return *intc_; }
  [[nodiscard]] dma::DmaEngine& dma() { return *dma_; }
  [[nodiscard]] icap::IcapController& icap_ctl() { return *icap_; }
  /// The OPB (the HWICAP's bus); the PLB is cpu().plb().
  [[nodiscard]] bus::OpbBus& opb() { return opb_; }
  [[nodiscard]] const fabric::ConfigMemory& fabric_state() const { return fabric_; }

  [[nodiscard]] dock::PlbDock& dock(int region) { return *docks_[check(region)]; }
  [[nodiscard]] const fabric::DynamicRegion& region(int region) const {
    return *regions_[check(region)];
  }
  [[nodiscard]] bitlinker::BitLinker& linker(int region) {
    return *linkers_[check(region)];
  }

  [[nodiscard]] static constexpr bus::Addr dock_data(int region) {
    return (region == 0 ? kDockARange.base : kDockBRange.base) +
           dock::PlbDock::kPioData;
  }

  /// Timed module load into region 0 or 1. Reconfiguring one region leaves
  /// the other's module configured and operational.
  ReconfigStats load_module(int region, hw::BehaviorId id);
  void unload(int region);
  [[nodiscard]] hw::HwModule* active_module(int region) {
    return modules_[check(region)].get();
  }

  [[nodiscard]] std::string topology() const;

 private:
  static int check(int region) {
    RTR_CHECK(region == 0 || region == 1, "region index out of range");
    return region;
  }

  PlatformOptions opts_;
  sim::Simulation sim_;
  sim::Clock& cpu_clk_;
  sim::Clock& bus_clk_;
  bus::PlbBus plb_;
  bus::OpbBus opb_;
  std::unique_ptr<bus::PlbOpbBridge> bridge_;
  std::unique_ptr<mem::MemorySlave> bram_;
  std::unique_ptr<mem::MemorySlave> ddr_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<fabric::DynamicRegion> regions_[kRegions];
  fabric::ConfigMemory fabric_;
  fabric::ConfigMemory baseline_;
  std::unique_ptr<icap::IcapController> icap_;
  std::unique_ptr<cpu::InterruptController> intc_;
  std::unique_ptr<dock::PlbDock> docks_[kRegions];
  std::unique_ptr<dma::DmaEngine> dma_;
  std::unique_ptr<bitlinker::BitLinker> linkers_[kRegions];
  hw::BehaviorRegistry registry_;
  std::unique_ptr<cpu::Ppc405> cpu_;
  std::unique_ptr<cpu::Kernel> kernel_;
  std::unique_ptr<hw::HwModule> modules_[kRegions];
};

}  // namespace rtr
