// CoreConnect bus models: the 32-bit On-chip Peripheral Bus (OPB) and the
// 64-bit Processor Local Bus (PLB).
//
// Timing model: a transaction entering a bus is aligned to the bus clock,
// pays the bus's protocol cycles (arbitration + address phase), hands the
// data phase to the decoded slave (which returns its own completion time),
// and pays a final cycle to complete. The bus serialises transactions with
// a busy-until reservation: a transfer requested while an earlier one is in
// flight starts after it (single-level arbitration, request order).
//
// PLB additionally supports burst transfers of 64-bit beats: one address
// phase, then pipelined data beats -- this is what gives DMA and cache line
// fills their bandwidth advantage over programmed I/O.
#pragma once

#include <string>
#include <vector>

#include "bus/slave.hpp"
#include "bus/types.hpp"
#include "sim/clock.hpp"
#include "sim/kernel.hpp"

namespace rtr::bus {

/// Protocol cycle counts (in the bus's own clock).
struct BusProtocol {
  int arbitration_cycles = 1;
  int address_cycles = 1;
  int completion_cycles = 1;
  int burst_setup_cycles = 0;  // extra address-phase cost of a burst
  int max_beat_bytes = 4;      // 4 on OPB, 8 on PLB
  bool supports_burst = false;
};

/// Shared implementation of both buses.
class Bus {
 public:
  Bus(std::string name, sim::Simulation& sim, sim::Clock& clock,
      BusProtocol protocol);
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Clock& clock() const { return *clock_; }
  [[nodiscard]] sim::Simulation& simulation() const { return *sim_; }
  [[nodiscard]] const BusProtocol& protocol() const { return protocol_; }

  /// Attach a slave at `range`. Ranges must not overlap.
  void attach(AddressRange range, Slave& slave);

  /// True when some slave decodes `addr`.
  [[nodiscard]] bool decodes(Addr addr) const;

  /// The slave decoding `addr` (aborts when unmapped: an unmapped access is
  /// a system-assembly bug, not a runtime condition).
  [[nodiscard]] Slave& slave_at(Addr addr, std::uint64_t len) const;

  /// Single-beat transfer. `bytes` must be a power of two within the bus
  /// width, naturally aligned.
  SlaveResult read(Addr addr, int bytes, sim::SimTime start);
  sim::SimTime write(Addr addr, std::uint64_t data, int bytes,
                     sim::SimTime start);

  /// Burst transfer of 64-bit beats (PLB only). The whole burst must decode
  /// to one slave. `increment=false` streams every beat to the same
  /// address (fixed-register targets).
  SlaveResult burst_read(Addr addr, std::span<std::uint64_t> out,
                         sim::SimTime start, bool increment = true);
  sim::SimTime burst_write(Addr addr, std::span<const std::uint64_t> data,
                           sim::SimTime start, bool increment = true);

  /// End of the bus's current reservation: a transaction requested before
  /// it waits for it.
  [[nodiscard]] sim::SimTime busy_until() const { return busy_until_; }
  /// Push the reservation `by` later: what replaying a repeating run of
  /// transactions in closed form does to the arbiter (see
  /// rtr::detail::icap_load_loop).
  void advance_reservation(sim::SimTime by) { busy_until_ += by; }

  /// Functional backdoor (no timing, no arbitration); see Slave::peek.
  [[nodiscard]] std::uint64_t peek(Addr addr, int bytes) const {
    return slave_at(addr, static_cast<std::uint64_t>(bytes)).peek(addr, bytes);
  }
  void poke(Addr addr, std::uint64_t data, int bytes) {
    slave_at(addr, static_cast<std::uint64_t>(bytes)).poke(addr, data, bytes);
  }

  /// Bulk backdoor: one address decode for the whole span (which must land
  /// in a single slave), then the slave's block fast path.
  void peek_block(Addr addr, std::span<std::uint8_t> out) const {
    if (out.empty()) return;
    slave_at(addr, out.size()).peek_block(addr, out);
  }
  void poke_block(Addr addr, std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    slave_at(addr, data.size()).poke_block(addr, data);
  }

  /// Enumerate attachments (for topology dumps).
  struct Attachment {
    AddressRange range;
    Slave* slave;
  };
  [[nodiscard]] const std::vector<Attachment>& attachments() const {
    return map_;
  }

 private:
  /// Align to the bus clock, wait for the bus to be free, pay arbitration +
  /// address cycles. Returns the data-phase start time.
  sim::SimTime begin_transaction(sim::SimTime start, bool burst);
  /// Pay the completion cycle, release the bus, record stats.
  sim::SimTime end_transaction(sim::SimTime data_done, sim::SimTime started);

  void check_beat(Addr addr, int bytes) const;

  /// Record a completed transaction on this bus's trace track (no-op with
  /// tracing disabled beyond the enabled() check).
  void trace_txn(const char* op, Addr addr, sim::SimTime started,
                 sim::SimTime done);

  std::string name_;
  sim::Simulation* sim_;
  sim::Clock* clock_;
  BusProtocol protocol_;
  std::vector<Attachment> map_;
  sim::SimTime busy_until_;
  sim::Counter* transactions_;
  sim::Counter* beats_;
  sim::BusyTime* busy_stat_;
  sim::Histogram* latency_hist_;
  int trace_track_ = -1;
};

/// 32-bit On-chip Peripheral Bus: lower performance, cheap slaves.
class OpbBus : public Bus {
 public:
  OpbBus(sim::Simulation& sim, sim::Clock& clock)
      : Bus("OPB", sim, clock,
            BusProtocol{.arbitration_cycles = 2,
                        .address_cycles = 1,
                        .completion_cycles = 1,
                        .burst_setup_cycles = 0,
                        .max_beat_bytes = 4,
                        .supports_burst = false}) {}
};

/// 64-bit Processor Local Bus: wide beats and pipelined bursts.
class PlbBus : public Bus {
 public:
  PlbBus(sim::Simulation& sim, sim::Clock& clock)
      : Bus("PLB", sim, clock,
            BusProtocol{.arbitration_cycles = 1,
                        .address_cycles = 1,
                        .completion_cycles = 1,
                        .burst_setup_cycles = 2,
                        .max_beat_bytes = 8,
                        .supports_burst = true}) {}
};

}  // namespace rtr::bus
