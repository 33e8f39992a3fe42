// rtrbench: the rtrsim benchmark program.
//
//   rtrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Serves rounds of one workload, cycling through a fixed set of streams
// derived from the seed, for at least S seconds, and prints as its last
// stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// traced rounds (each next to an untraced one), prints the layer table and
// reports the per-layer metrics. See README.md.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "reference.hpp"
#include "sim/random.hpp"

namespace rtrbench {
namespace {

/// The seed every figure in README.md was measured at, and the held-out
/// seed reserved for confirming a later claim.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 97;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of the JSON line. dma.chain_setup_us and
/// fleet.shard_end_spread_ms are printed in the layer table only: each is a
/// simulated time that is zero by construction on two of the workloads.
const Metric kPerLayer[] = {
    {"serve.host_us_per_req", "us"},
    {"serve.self_us_per_req", "us"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.coalesced", "count"},
    {"rtr.swaps", "count"},
    {"rtr.host_us_per_swap", "us"},
    {"rtr.plan_build_ms", "ms"},
    {"rtr.plan_cache_misses", "count"},
    {"rtr.reconfig_p50_ms", "ms"},
    {"rtr.activations", "count"},
    {"icap.words", "count"},
    {"icap.frames", "count"},
    {"icap.host_ns_per_word", "ns"},
    {"bus.plb_txn", "count"},
    {"bus.opb_txn", "count"},
    {"bus.bridge_crossings", "count"},
    {"bus.plb_busy_ms", "ms"},
    {"bus.host_ns_per_txn", "ns"},
    {"cpu.loads", "count"},
    {"cpu.stores", "count"},
    {"dma.chains", "count"},
    {"dma.chain_descriptors", "count"},
    {"dma.bytes", "B"},
    {"dock.reads", "count"},
    {"dock.writes", "count"},
    {"dock.fifo_pushes", "count"},
    {"apps.exec_host_us_per_req", "us"},
    {"apps.exec_p50_us", "us"},
    {"fleet.route_host_ns_per_decision", "ns"},
    {"fleet.merge_host_ms", "ms"},
    {"fleet.swaps", "count"},
    {"fleet.affinity_hits", "count"},
    {"fleet.steals", "count"},
    {"fleet.redispatched", "count"},
    {"fleet.quarantines", "count"},
    {"fleet.readmits", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 20;
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: rtrbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n  workloads:");
  for (const WorkloadInfo& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr,
               "\n  seeds: default %llu, held out for confirming claims %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
}

template <typename T>
bool parse_number(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    int trace = 0;
    if (opt == "--workload") {
      a->workload = val;
    } else if (opt == "--seed") {
      if (!parse_number(val, &a->seed)) return false;
    } else if (opt == "--seconds") {
      if (!parse_number(val, &a->seconds) || a->seconds < 1 ||
          a->seconds > 600) {
        return false;
      }
    } else if (opt == "--trace") {
      if (!parse_number(val, &trace) || (trace != 0 && trace != 1)) {
        return false;
      }
      a->trace = trace == 1;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double median(std::vector<double> v) { return percentile(v, 50); }

/// Peak resident set of this process (ru_maxrss is in KiB on Linux).
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// A simulated figure of `r`; zero for a layer the workload does not
/// exercise.
double sim_value(const Round& r, const char* name) {
  const auto it = r.sim.find(name);
  return it == r.sim.end() ? 0.0 : it->second;
}

/// Simulated figures must not depend on the round, on tracing or on the
/// host worker count: every key `a` and `b` share must agree exactly.
void check_same_sim(const Round& a, const Round& b, const std::string& what,
                    std::vector<std::string>* errors) {
  for (const auto& [name, v] : a.sim) {
    const auto it = b.sim.find(name);
    if (it != b.sim.end() && it->second != v) {
      errors->push_back(what + ": " + name + " is " + number(it->second) +
                        ", first round " + number(v));
    }
  }
}

struct Totals {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Round& r, const std::string& label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(label + ": " + e);
  }
};

void print_result(const Totals& t,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(metrics[i].first.name);
    out.append("\": {\"value\": ").append(number(metrics[i].second));
    out.append(", \"unit\": \"").append(metrics[i].first.unit).append("\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// End-to-end metrics of an untraced run. Host figures are medians over
/// its rounds; simulated figures pool the first round of each stream.
std::vector<std::pair<Metric, double>> end_to_end(
    const std::vector<Round>& rounds, std::size_t streams, double peak_rss) {
  std::vector<double> rate, setup, latency;
  for (const Round& r : rounds) {
    rate.push_back(static_cast<double>(r.attempted) / r.timed_s);
    setup.push_back(r.setup_s);
  }
  std::int64_t served = 0, makespan_ps = 0;
  for (std::size_t i = 0; i < streams; ++i) {
    const Round& r = rounds[i];
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    served += r.served;
    makespan_ps += r.makespan_ps;
  }
  return {
      {{"host_req_per_s", "req/s"}, median(rate)},
      {{"setup_s", "s"}, median(setup)},
      {{"peak_rss_mb", "MiB"}, peak_rss},
      {{"sim_p50_ms", "ms"}, percentile(latency, 50)},
      {{"sim_p99_ms", "ms"}, percentile(latency, 99)},
      {{"sim_req_per_s", "req/sim-s"}, req_per_sim_s(served, makespan_ps)},
  };
}

/// The layer table of the traced rounds: host ms per bracketed layer
/// (medians over traced rounds), its share of the traced host time, and
/// the tracing overhead on the workload's own serve calls.
void print_layer_table(const std::string& workload,
                       const std::vector<Round>& traced,
                       const std::vector<Round>& untraced) {
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Round& r : traced) v.push_back(field(r.clocks).ms());
    return median(v);
  };
  struct Row {
    const char* layer;
    double ms;
  };
  const double serve = med([](const LayerClocks& c) { return c.serve; });
  const double swap = med([](const LayerClocks& c) { return c.swap; });
  const double hit = med([](const LayerClocks& c) { return c.hit; });
  const double exec = med([](const LayerClocks& c) { return c.exec; });
  const Row rows[] = {
      {"serve (self: calls minus the rtr and apps replay)",
       serve - swap - hit - exec},
      {"rtr ensure, swaps (icap, bus, cpu under it)", swap},
      {"rtr ensure, resident hits", hit},
      {"rtr warm (plan build)", med([](const LayerClocks& c) {
         return c.plan_build;
       })},
      {"apps exec (dma, dock under it)", exec},
      {"serve/fleet route", med([](const LayerClocks& c) { return c.route; })},
      {"serve/fleet registry merge",
       med([](const LayerClocks& c) { return c.merge; })},
  };
  double total = 0;
  for (const Row& row : rows) total += row.ms;
  std::printf("layer table: %s, %zu traced round(s), medians\n",
              workload.c_str(), traced.size());
  std::printf("  %-52s %12s %8s\n", "layer", "host ms", "share");
  for (const Row& row : rows) {
    std::printf("  %-52s %12.3f %7.1f%%\n", row.layer, row.ms,
                total > 0 ? 100.0 * row.ms / total : 0.0);
  }
  std::printf("  %-52s %12.3f %7.1f%%\n", "traced host time", total, 100.0);
  std::vector<double> on, off;
  for (const Round& r : traced) on.push_back(r.timed_s * 1e3);
  for (const Round& r : untraced) off.push_back(r.timed_s * 1e3);
  const double d = median(on) - median(off);
  std::printf(
      "  timed phase: traced %.3f ms, untraced %.3f ms, traced - untraced "
      "%.3f ms (%.2f%%)\n",
      median(on), median(off), d, median(off) > 0 ? 100.0 * d / median(off) : 0);
  std::printf("  simulated, table only: dma.chain_setup_us %s, "
              "fleet.shard_end_spread_ms %s\n",
              number(sim_value(traced.front(), "dma.chain_setup_us")).c_str(),
              number(sim_value(traced.front(), "fleet.shard_end_spread_ms"))
                  .c_str());
}

int run(const Args& a) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : workloads()) {
    if (a.workload == w.name) info = &w;
  }
  if (info == nullptr) {
    usage();
    return 2;
  }
  Totals t;
  for (const std::string& e : ref::self_test()) {
    t.errors.push_back("reference self-test: " + e);
  }
  const HostClock::time_point start = HostClock::now();
  const auto elapsed = [&] {
    return seconds_between(start, HostClock::now());
  };
  std::printf("rtrbench: %s, seed %llu, %d s, trace %d\n", info->name,
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);

  // The run's stream seeds: the first `streams` outputs of a generator
  // seeded with --seed. Round i serves stream i mod streams.
  rtr::sim::Rng seeder{a.seed};
  std::vector<std::uint64_t> streams(static_cast<std::size_t>(info->streams));
  for (std::uint64_t& s : streams) s = seeder.next_u64();
  const auto stream_of = [&](std::size_t round) {
    return streams[round % streams.size()];
  };

  std::vector<Round> untraced, traced;
  const auto report = [](const char* kind, std::size_t i, const Round& r) {
    std::printf("  %s round %zu: setup %.6f s, timed %.6f s, %lld requests, "
                "%lld failed, %zu check failures\n",
                kind, i + 1, r.setup_s, r.timed_s,
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed), r.errors.size());
  };
  // Untraced runs serve every stream once and one stream twice, so that
  // each run also checks that a stream's simulated figures repeat.
  const std::size_t min_rounds = a.trace ? 1 : streams.size() + 1;
  do {
    const std::size_t i = untraced.size();
    untraced.push_back(info->run(stream_of(i), false, 1));
    report("untraced", i, untraced.back());
    t.add(untraced.back(), "round " + std::to_string(i + 1));
    if (a.trace) {
      traced.push_back(info->run(stream_of(i), true, 1));
      report("traced", i, traced.back());
      t.add(traced.back(), "traced round " + std::to_string(i + 1));
    }
  } while (elapsed() < a.seconds || untraced.size() < min_rounds);

  // Simulated figures may not depend on the round, on tracing or on the
  // host worker count.
  for (std::size_t i = streams.size(); i < untraced.size(); ++i) {
    check_same_sim(untraced[i % streams.size()], untraced[i],
                   "round " + std::to_string(i + 1), &t.errors);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    check_same_sim(untraced[i], traced[i],
                   "traced round " + std::to_string(i + 1), &t.errors);
  }
  // Taken before the worker-count round: its extra threads get heap arenas
  // of their own, which would make the peak depend on thread timing.
  const double peak_rss = peak_rss_mib();
  if (info->check_jobs > 1) {
    Round other = info->run(stream_of(0), false, info->check_jobs);
    t.add(other, "worker-count round");
    t.attempted -= other.attempted;
    t.failed -= other.failed;
    check_same_sim(untraced.front(), other, "worker-count round", &t.errors);
  }
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  std::vector<std::pair<Metric, double>> metrics;
  if (!a.trace) {
    metrics = end_to_end(untraced, streams.size(), peak_rss);
  } else {
    print_layer_table(info->name, traced, untraced);
    for (const Metric& m : kPerLayer) {
      // Host figures are medians over the traced rounds; simulated ones
      // come from the first stream.
      std::vector<double> host;
      for (const Round& r : traced) {
        const auto h = r.host.find(m.name);
        if (h != r.host.end()) host.push_back(h->second);
      }
      metrics.push_back({m, !host.empty() ? median(host)
                                          : sim_value(traced.front(), m.name)});
      std::printf("  %-34s %16s %s\n", m.name, number(metrics.back().second).c_str(),
                  m.unit);
    }
  }
  print_result(t, metrics);
  return t.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace rtrbench

int main(int argc, char** argv) {
  rtrbench::Args a;
  if (!rtrbench::parse_args(argc, argv, &a)) {
    rtrbench::usage();
    return 2;
  }
  return rtrbench::run(a);
}
