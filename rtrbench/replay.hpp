// The traced run's replay: the served sequence of a workload, run again on a
// fresh platform straight through the layers under the serving layer, so
// the benchmark can bracket each layer's public functions from outside:
// ModuleManager::warm and ensure (rtr, and under it icap/bus/cpu) and
// serve::exec_request / exec_image_batch (apps, dma, dock).
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "reference.hpp"
#include "rtr/manager.hpp"
#include "serve/batch_exec.hpp"
#include "serve/exec.hpp"

namespace rtrbench {

struct ReplayTotals {
  std::int64_t swaps = 0;     // ensures that reconfigured an area
  std::int64_t words = 0;     // ICAP words those swaps streamed
  std::int64_t bus_txn = 0;   // PLB + OPB transactions of the replay
  std::int64_t executed = 0;  // requests executed on the hardware path
};

/// Replays `batches` (one ensure, then the members' execution, per batch)
/// on a fresh `Platform` with `areas` dynamic areas, after warming the plans
/// of `warm_set`. Checks every swap against the ICAP bound and every output
/// against the reference kernels.
template <typename Platform>
void replay(int areas, std::uint64_t seed, const std::vector<int>& warm_set,
            const std::vector<BatchRecord>& batches, LayerClocks& lc,
            ReplayTotals& tot, Round* r) {
  constexpr bool k64 = std::is_same_v<Platform, rtr::Platform64>;
  constexpr int kWidth = k64 ? 64 : 32;
  constexpr std::int64_t kPsPerByte = icap_ps_per_byte(kWidth);
  const std::string where = k64 ? "replay/64" : "replay/32";

  rtr::PlatformOptions po;
  po.dynamic_areas = areas;
  Platform p{po};
  rtr::ModuleManager<Platform> mgr(p);
  for (const int b : warm_set) {
    Span s(&lc.plan_build);
    (void)mgr.warm(static_cast<rtr::hw::BehaviorId>(b), kWidth);
  }

  const auto check_digest = [&](int behavior, std::int64_t id,
                                std::uint64_t got) {
    std::uint64_t want = 0;
    if (!ref::expected_digest(behavior, seed, id, &want) || want != got) {
      r->errors.push_back(where + ": request " + std::to_string(id) +
                          " digest differs from the reference");
    }
  };

  for (const BatchRecord& b : batches) {
    const auto id = static_cast<rtr::hw::BehaviorId>(b.behavior);
    const HostClock::time_point t0 = HostClock::now();
    const rtr::EnsureStats es = mgr.ensure(id, kWidth);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        HostClock::now() - t0)
                        .count();
    LayerClock& c = es.already_resident ? lc.hit : lc.swap;
    c.ns += ns;
    ++c.calls;
    if (!es.ok) {
      r->errors.push_back(where + ": ensure failed: " + es.error);
      continue;
    }
    if (!es.already_resident) {
      ++tot.swaps;
      tot.words += es.stream_words;
      if (es.time.ps() < es.stream_words * 4 * kPsPerByte) {
        r->errors.push_back(where + ": a swap of " +
                            std::to_string(es.stream_words) +
                            " words took less than one byte per ICAP clock");
      }
    }

    std::vector<rtr::serve::BatchMember> members(b.ids.size());
    for (std::size_t m = 0; m < b.ids.size(); ++m) {
      members[m].input_seed = ref::input_seed(seed, b.ids[m]);
    }
    bool chained = false;
    if (members.size() > 1) {
      Span s(&lc.exec);
      chained = rtr::serve::exec_image_batch(p, id, members);
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (!chained) {
        Span s(&lc.exec);
        members[m].result =
            rtr::serve::exec_request(p, id, members[m].input_seed, true);
      }
      check_digest(b.behavior, b.ids[m], members[m].result.digest);
    }
    tot.executed += static_cast<std::int64_t>(members.size());
  }
  const auto& counters = p.sim().stats().counters();
  for (const char* bus : {"PLB.transactions", "OPB.transactions"}) {
    const auto it = counters.find(bus);
    if (it != counters.end()) tot.bus_txn += it->second.value();
  }
}

/// Routes `stream` through a FleetRouter shaped like fleet-failover's fleet,
/// bracketed as one span (a route decision is too short to bracket alone).
void time_routing(const std::vector<rtr::serve::Request>& stream,
                  std::uint64_t seed, LayerClock& clock);

/// The traced round's host figures of the per-layer metrics, from its layer
/// clocks, the replay totals and the workload's request count.
void host_figures(const ReplayTotals& tot, std::int64_t requests, Round* r);

}  // namespace rtrbench
