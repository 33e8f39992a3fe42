// Shared vocabulary of the rtrsim benchmark: host clocks, the result of one
// round of a workload, and the entry points of the three workloads.
//
// A round serves one request stream: an untimed set-up, a timed phase and
// the output checks, which run after the clock stops. A run derives a fixed
// number of stream seeds from its --seed, serves them in turn and keeps
// cycling through them for the requested time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/library.hpp"
#include "serve/request.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace rtrbench {

using HostClock = std::chrono::steady_clock;

constexpr std::int64_t kMs = 1'000'000'000;  // picoseconds

/// One byte per ICAP clock, which is the bus clock: 100 MHz on the 64-bit
/// system, 50 MHz on the 32-bit one (docs/TIMING_MODEL.md).
constexpr std::int64_t icap_ps_per_byte(int system) {
  return system == 64 ? 10'000 : 20'000;
}

inline double seconds_between(HostClock::time_point a,
                              HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host time spent in one layer, accumulated by Span brackets. The traced
/// run passes a LayerClock; the timed phase passes none, so each bracket
/// costs a branch.
struct LayerClock {
  std::int64_t ns = 0;
  std::int64_t calls = 0;
  [[nodiscard]] double ms() const { return static_cast<double>(ns) / 1e6; }
};

class Span {
 public:
  explicit Span(LayerClock* c) : c_(c) {
    if (c_ != nullptr) t0_ = HostClock::now();
  }
  ~Span() {
    if (c_ == nullptr) return;
    c_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  HostClock::now() - t0_)
                  .count();
    ++c_->calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* c_;
  HostClock::time_point t0_{};
};

/// The layers the traced run brackets from outside the program.
struct LayerClocks {
  LayerClock serve;       // TaskServer::submit / serve_one / serve_batch
                          // (fleet-failover: the whole run_fleet call)
  LayerClock plan_build;  // replay: ModuleManager::warm
  LayerClock swap;        // replay: ModuleManager::ensure that reconfigured
  LayerClock hit;         // replay: ModuleManager::ensure on a resident hit
  LayerClock exec;        // replay: exec_request / exec_image_batch
  LayerClock route;       // FleetRouter::route over the request stream
  LayerClock merge;       // StatRegistry::merge over the shard registries
};

/// One round of a workload.
struct Round {
  double setup_s = 0;  // start of the round to its first submitted request
  double timed_s = 0;  // first submission to the last disposal
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Simulated figures: the sim_* end-to-end metrics and every simulated
  /// per-layer figure. A pure function of (workload, seed); rounds compare
  /// them for equality.
  std::map<std::string, double> sim;
  /// Traced rounds only: host figures of the per-layer metrics.
  std::map<std::string, double> host;
  LayerClocks clocks;
  /// Latency of every served request and the stream's makespan, for the
  /// run's figures pooled over its streams.
  std::vector<double> latency_ms;
  std::int64_t served = 0;
  std::int64_t makespan_ps = 0;
  /// Output-check failures; a round with any is incorrect.
  std::vector<std::string> errors;
};

/// A served request as the replay and the checks need it.
struct BatchRecord {
  int behavior = 0;
  std::vector<std::int64_t> ids;  // hardware-served members, in serve order
};

struct WorkloadInfo {
  const char* name;
  /// Runs one round on the stream drawn from `seed`. `traced` brackets the
  /// layer calls and replays the served sequence; `jobs` is the host worker
  /// count where the workload has one (fleet-failover).
  Round (*run)(std::uint64_t seed, bool traced, int jobs);
  /// Measured rounds run on one host thread. A workload with a worker pool
  /// names here the worker count at which each run repeats its first stream,
  /// to check that simulated figures do not depend on it; 1 means none.
  int check_jobs;
  /// Streams per run: the simulated end-to-end figures pool this many
  /// independent streams, enough that they move by a few percent from one
  /// --seed to the next.
  int streams;
};

const std::vector<WorkloadInfo>& workloads();

/// fleet-failover's fleet: four devices alternating between the 64- and
/// 32-bit systems, two dynamic areas on each 64-bit device (the 32-bit
/// device holds one), the fleet's default work-stealing threshold.
inline const std::vector<int>& fleet_systems() {
  static const std::vector<int> kSystems = {64, 32, 64, 32};
  return kSystems;
}
inline const std::vector<int>& fleet_areas() {
  static const std::vector<int> kAreas = {2, 1, 2, 1};
  return kAreas;
}
constexpr int kFleetStealThreshold = 4;

// --- stream drawing -----------------------------------------------------------

struct MixEntry {
  rtr::hw::BehaviorId behavior;
  int weight;
};

/// A behaviour drawn with probability proportional to its weight.
inline rtr::hw::BehaviorId draw_behavior(rtr::sim::Rng& rng,
                                         const std::vector<MixEntry>& mix) {
  int total = 0;
  for (const MixEntry& m : mix) total += m.weight;
  auto pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  for (const MixEntry& m : mix) {
    pick -= m.weight;
    if (pick < 0) return m.behavior;
  }
  return mix.back().behavior;
}

/// 10% high, 80% normal, 10% low.
inline rtr::serve::Priority draw_priority(rtr::sim::Rng& rng) {
  const std::uint64_t d = rng.below(10);
  if (d == 0) return rtr::serve::Priority::kHigh;
  if (d == 9) return rtr::serve::Priority::kLow;
  return rtr::serve::Priority::kNormal;
}

/// Uniform on [0, 2 x mean] in integer picoseconds.
inline std::int64_t draw_gap(rtr::sim::Rng& rng, std::int64_t mean_ps) {
  return mean_ps / 1000 * static_cast<std::int64_t>(rng.below(2001));
}

// --- shared helpers (checks.cpp) ----------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place), p in (0, 100].
double percentile(std::vector<double>& v, double p);

/// Simulated end-to-end figures of one stream's served requests: latency
/// p50/p99 in ms and requests per simulated second over `makespan_ps`.
void sim_latency_figures(std::vector<double> latency_ms,
                         std::int64_t makespan_ps, Round* r);
double req_per_sim_s(std::int64_t served, std::int64_t makespan_ps);

/// Every served completion's digest against the reference kernels.
void check_digests(const std::vector<rtr::serve::Completion>& served,
                   std::uint64_t server_seed, Round* r);

/// Reconfiguration time is never below the configuration bytes streamed at
/// one byte per ICAP clock: summed over the registry's successful swaps,
/// their simulated time must cover the frame payload bytes at
/// `ps_per_byte`.
void check_icap_bound(const rtr::sim::StatRegistry& stats,
                      std::int64_t ps_per_byte, const std::string& where,
                      Round* r);

/// Simulated per-layer counts read from a platform (or merged fleet)
/// registry, stored into r->sim under their metric names.
void layer_counts(const rtr::sim::StatRegistry& stats, Round* r);

}  // namespace rtrbench
