#include <algorithm>
#include <cmath>

#include "harness.hpp"
#include "reference.hpp"

namespace rtrbench {

using rtr::serve::Completion;

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

void sim_latency_figures(std::vector<double> latency_ms,
                         std::int64_t makespan_ps, Round* r) {
  r->served = static_cast<std::int64_t>(latency_ms.size());
  r->makespan_ps = makespan_ps;
  r->latency_ms = latency_ms;
  r->sim["sim_p50_ms"] = percentile(latency_ms, 50);
  r->sim["sim_p99_ms"] = percentile(latency_ms, 99);
  r->sim["sim_req_per_s"] = req_per_sim_s(r->served, makespan_ps);
}

double req_per_sim_s(std::int64_t served, std::int64_t makespan_ps) {
  return makespan_ps > 0 ? static_cast<double>(served) /
                               (static_cast<double>(makespan_ps) * 1e-12)
                         : 0;
}

void check_digests(const std::vector<Completion>& served,
                   std::uint64_t server_seed, Round* r) {
  std::int64_t bad = 0;
  std::int64_t first_bad = 0;
  for (const Completion& c : served) {
    std::uint64_t want = 0;
    if (!ref::expected_digest(c.req.behavior, server_seed, c.req.id, &want) ||
        want != c.digest) {
      if (bad++ == 0) first_bad = c.req.id;
    }
  }
  if (bad > 0) {
    r->errors.push_back(std::to_string(bad) +
                        " served digests differ from the reference kernels "
                        "(first: request " +
                        std::to_string(first_bad) + ")");
  }
}

namespace {

std::int64_t counter(const rtr::sim::StatRegistry& s, const std::string& n) {
  const auto it = s.counters().find(n);
  return it == s.counters().end() ? 0 : it->second.value();
}

const rtr::sim::Histogram* histogram(const rtr::sim::StatRegistry& s,
                                     const std::string& n) {
  const auto it = s.histograms().find(n);
  return it == s.histograms().end() ? nullptr : &it->second;
}

/// The registry's swap-latency series: ensures that streamed a
/// configuration (a cached or freshly built differential, or a complete).
rtr::sim::Histogram swap_latency(const rtr::sim::StatRegistry& s) {
  rtr::sim::Histogram all;
  for (const char* path : {"cached", "differential", "complete"}) {
    if (const auto* h =
            histogram(s, std::string("rtr.ensure.latency_ps.") + path)) {
      all.merge(*h);
    }
  }
  return all;
}

}  // namespace

void check_icap_bound(const rtr::sim::StatRegistry& stats,
                      std::int64_t ps_per_byte, const std::string& where,
                      Round* r) {
  const std::int64_t bytes = counter(stats, "reconfig.complete_bytes") +
                             counter(stats, "reconfig.differential_bytes");
  const rtr::sim::Histogram swaps = swap_latency(stats);
  if (swaps.sum() < bytes * ps_per_byte) {
    r->errors.push_back(where + ": " + std::to_string(swaps.count()) +
                        " swaps took " + std::to_string(swaps.sum()) +
                        " ps for " + std::to_string(bytes) +
                        " configuration bytes, under one byte per ICAP clock");
  }
}

void layer_counts(const rtr::sim::StatRegistry& s, Round* r) {
  auto& m = r->sim;
  const rtr::sim::Histogram swaps = swap_latency(s);
  m["rtr.swaps"] = static_cast<double>(swaps.count());
  m["rtr.reconfig_p50_ms"] = swaps.p50() / 1e9;
  m["rtr.plan_cache_misses"] =
      static_cast<double>(counter(s, "rtr.plan_cache.misses"));
  m["rtr.activations"] =
      static_cast<double>(counter(s, "rtr.place.activations"));
  m["icap.frames"] = static_cast<double>(counter(s, "icap.frames"));
  m["bus.plb_txn"] = static_cast<double>(counter(s, "PLB.transactions"));
  m["bus.opb_txn"] = static_cast<double>(counter(s, "OPB.transactions"));
  m["bus.bridge_crossings"] =
      static_cast<double>(counter(s, "bridge.crossings"));
  const auto busy = s.busy_times().find("PLB.busy");
  m["bus.plb_busy_ms"] =
      busy == s.busy_times().end()
          ? 0
          : static_cast<double>(busy->second.total().ps()) / 1e9;
  m["cpu.loads"] = static_cast<double>(counter(s, "cpu.loads"));
  m["cpu.stores"] = static_cast<double>(counter(s, "cpu.stores"));
  const std::int64_t chains = counter(s, "dma.chains");
  m["dma.chains"] = static_cast<double>(chains);
  m["dma.chain_descriptors"] =
      static_cast<double>(counter(s, "dma.chain.descriptors"));
  m["dma.bytes"] = static_cast<double>(counter(s, "dma.bytes"));
  m["dma.chain_setup_us"] =
      chains > 0 ? static_cast<double>(counter(s, "dma.chain.setup_ps")) /
                       static_cast<double>(chains) / 1e6
                 : 0;
  m["dock.reads"] = static_cast<double>(counter(s, "dock64.reads") +
                                        counter(s, "dock32.reads"));
  m["dock.writes"] = static_cast<double>(counter(s, "dock64.writes") +
                                         counter(s, "dock32.writes"));
  m["dock.fifo_pushes"] = static_cast<double>(counter(s, "dock64.fifo_pushes"));
  const auto* exec = histogram(s, "serve.stage.exec.latency_ps");
  m["apps.exec_p50_us"] = exec == nullptr ? 0 : exec->p50() / 1e6;
}

}  // namespace rtrbench
