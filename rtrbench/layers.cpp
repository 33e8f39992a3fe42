#include "replay.hpp"
#include "serve/fleet/router.hpp"

namespace rtrbench {

void time_routing(const std::vector<rtr::serve::Request>& stream,
                  std::uint64_t seed, LayerClock& clock) {
  rtr::serve::fleet::FleetRouter router(fleet_systems(), /*affinity=*/true,
                                        kFleetStealThreshold, seed,
                                        fleet_areas());
  {
    Span s(&clock);
    for (const rtr::serve::Request& req : stream) (void)router.route(req);
  }
  clock.calls = static_cast<std::int64_t>(stream.size());
}

void host_figures(const ReplayTotals& tot, std::int64_t requests, Round* r) {
  const LayerClocks& c = r->clocks;
  const auto per = [](std::int64_t ns, std::int64_t n, double unit_ns) {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) / unit_ns
                 : 0.0;
  };
  const std::int64_t below_serve = c.swap.ns + c.hit.ns + c.exec.ns;
  auto& h = r->host;
  h["serve.host_us_per_req"] = per(c.serve.ns, requests, 1e3);
  h["serve.self_us_per_req"] = per(c.serve.ns - below_serve, requests, 1e3);
  h["rtr.host_us_per_swap"] = per(c.swap.ns, tot.swaps, 1e3);
  h["rtr.plan_build_ms"] = c.plan_build.ms();
  h["icap.host_ns_per_word"] = per(c.swap.ns, tot.words, 1);
  h["bus.host_ns_per_txn"] = per(below_serve, tot.bus_txn, 1);
  h["apps.exec_host_us_per_req"] = per(c.exec.ns, tot.executed, 1e3);
  h["fleet.route_host_ns_per_decision"] = per(c.route.ns, c.route.calls, 1);
  h["fleet.merge_host_ms"] = c.merge.ms();
  r->sim["icap.words"] = static_cast<double>(tot.words);
}

}  // namespace rtrbench
