// rtrsim command-line front end.
//
//   rtrsim_cli topology  --system 32|64|dual
//   rtrsim_cli resources --system 32|64
//   rtrsim_cli run       --system 32|64 --task <name> [--bytes N] [--image WxH]
//                        [--dma] [--cache]
//   rtrsim_cli reconfig  --system 32|64 --task <name> [--dma]
//   rtrsim_cli sweep     [-j N] [--smoke] [--bench-out FILE]
//   rtrsim_cli faults    [--smoke] [--seed N]
//   rtrsim_cli serve     [-j N] [--smoke] [--seed N] [--bench-out FILE]
//                        [--no-plan-cache]
//   rtrsim_cli serve     --workload NAME --system 32|64 [--seed N]
//                        [--fault-spec ...] [--repair-at N] [--dma]
//                        [--no-plan-cache]
//   rtrsim_cli chaos     [-j N] [--smoke] [--seed N] [--bench-out FILE]
//                        [--stats-out FILE] [--trace-out FILE]
//
// `sweep` runs a fixed list of Platform32/Platform64 scenarios across a
// worker-thread pool (each simulation is single-threaded and owns all its
// state; only independent simulations run concurrently), so stdout is
// byte-identical for any -j. Host wall-clock goes to stderr; --bench-out
// additionally records substrate primitive timings and sweep throughput.
//
// `faults` sweeps a fixed fault matrix: one seeded fault per site
// (storage, icap, dma, bus, readback) on both platforms, recovered through
// the ModuleManager's retry/fallback/scrub machinery, reporting detection
// latency and recovery outcome per scenario (docs/FAULTS.md). Output is a
// pure function of --seed, so identical invocations are byte-identical.
// run/reconfig also accept --fault-spec <site:trigger:seed> (repeatable)
// to arm individual faults.
//
// `chaos` runs the deterministic device-failure matrix over the
// health-tracking fleet (docs/FLEET_HEALTH.md): seeded fail-stop and
// brownout scenarios, each in three arms (fault-free baseline, faults with
// the HealthTracker, faults without it), reporting goodput retained and
// checking per-scenario expectations (quarantine, readmission, typed
// no-healthy-device failures). Output is a pure function of --seed at any
// -j; --bench-out records BENCH_chaos.json.
//
// `serve` drives the request-serving layer (docs/SERVING.md): closed-loop
// seeded workloads through a TaskServer with admission control, deadline
// watchdogs, per-module circuit breakers and graceful degradation to the
// software kernels. Without --workload it runs a fixed self-checking
// scenario matrix (including stuck-fault scenarios that must watchdog,
// open the breaker, degrade, and recover through a half-open probe) across
// the same worker pool as `sweep`; with --workload it runs one named
// workload on one platform. Output is a pure function of --seed.
// --slo metric:target[@short/long][:burn=X] (repeatable) declares service
// objectives checked by a multi-window burn-rate engine; --incident-dir
// DIR (single-workload mode only) arms a flight recorder that snapshots
// the recent trace window and serving state on watchdog abort, breaker
// open, recovery give-up or SLO burn (docs/OBSERVABILITY.md).
//
// Observability (run/reconfig):
//   --trace-out FILE      record spans and write a trace
//   --trace-format chrome|text   (default chrome: open in Perfetto)
//   --stats-out FILE      dump the whole stat registry
//   --stats-format json|csv      (default json)
//   --log-level err|warn|info|trace   component log to stderr
//
// Tasks: jenkins, sha1, patmatch, brightness, blend, fade, loopback.
// Every run executes both the software baseline and the hardware version
// and cross-checks them, printing simulated times and the speedup.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "apps/drivers.hpp"
#include "apps/golden.hpp"
#include "apps/memio.hpp"
#include "apps/sw_kernels.hpp"
#include "fabric/config_memory.hpp"
#include "fault/fault.hpp"
#include "mem/sparse_memory.hpp"
#include "report/table.hpp"
#include "rtr/manager.hpp"
#include "rtr/platform.hpp"
#include "rtr/platform_dual.hpp"
#include "rtr/readback.hpp"
#include "serve/fleet/fleet.hpp"
#include "serve/server.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/parse.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace rtr;
using bus::Addr;

struct Args {
  std::string command;
  int system = 32;
  std::string task = "jenkins";
  std::uint32_t bytes = 4096;
  int img_w = 128;
  int img_h = 96;
  bool dma = false;
  bool cache = false;
  bool dual = false;
  std::string trace_out;
  std::string trace_format = "chrome";
  std::string stats_out;
  std::string stats_format = "json";
  std::string log_level;  // empty: logging off
  int jobs = 0;           // sweep worker threads; 0 = hardware concurrency
  bool smoke = false;     // sweep/faults: small scenario subset (CI)
  bool plan_cache = true;  // serve: memoize/prefetch reconfiguration plans
  std::string bench_out;  // sweep/serve: benchmark JSON
  std::vector<std::string> fault_specs;  // run/reconfig/serve: --fault-spec
  std::uint64_t fault_seed = 1;          // faults/serve: --seed
  std::string workload;                  // serve: named workload (single mode)
  int repair_at = -1;                    // serve: repair_all after N requests
  std::vector<serve::SloSpec> slos;      // serve: --slo declared objectives
  std::string incident_dir;              // serve: flight-recorder snapshots
  int devices = 8;                       // fleet: simulated device count
  std::vector<int> mix = {64, 32};       // fleet: device systems, cycled
  std::string mix_text = "64:32";        // fleet: --mix as given (for output)
  int steal_threshold = 4;               // fleet: 0 disables work stealing
  bool affinity = true;                  // fleet: --no-affinity for A/B
  int requests = 2000;                   // fleet: arrival stream length
  int zipf_skew = 1;                     // fleet: behaviour popularity skew
  long long arrival_us = 800;            // fleet: mean interarrival gap
  int areas = 1;  // serve/fleet: co-resident dynamic areas per device
  int max_batch = 1;  // serve/fleet/chaos: swap-aware batching (1 = off)
  long long batch_slack_us = 20000;  // batch admission slack budget
};

int usage() {
  std::fprintf(stderr,
               "usage: rtrsim_cli <topology|resources|run|reconfig|sweep|"
               "faults|serve|fleet|chaos> "
               "[--system 32|64|dual] [--task NAME] [--bytes N] "
               "[--image WxH] [--dma] [--cache]\n"
               "       [--trace-out FILE] [--trace-format chrome|text]\n"
               "       [--stats-out FILE] [--stats-format json|csv]\n"
               "       [--log-level err|warn|info|trace]\n"
               "       [-j N|--jobs N] [--smoke] [--bench-out FILE]\n"
               "       [--fault-spec site:trigger:seed]... [--seed N]\n"
               "       [--workload NAME] [--repair-at N] [--no-plan-cache]\n"
               "       [--slo metric:target[@S/L][:burn=X]]... "
               "[--incident-dir DIR]\n"
               "       [--devices N] [--mix 64:32] [--requests N] "
               "[--arrival-us N]\n"
               "       [--zipf-skew N] [--steal-threshold N] "
               "[--no-affinity] [--areas N]\n"
               "       [--max-batch N] [--batch-slack US]\n"
               "tasks: jenkins sha1 patmatch brightness blend fade loopback\n"
               "workloads: mixed hash image burst steady heavy "
               "open-steady open-bursty open-diurnal\n"
               "fault sites: storage icap dma bus readback fail_stop "
               "brownout; triggers: once@N every@N stuck@N rand\n"
               "fault spec: site:trigger:seed[:device] (device scopes the "
               "fault to one fleet shard)\n"
               "slo metrics: deadline hw (e.g. deadline:0.99@10ms/50ms:burn=2)"
               "\n");
  return 2;
}

/// Strict decimal parse (sim/parse.hpp: whole-string, overflow-checked --
/// atoi-style silent zero-on-garbage is how "--bytes 4k" becomes a 0-byte
/// run). Null-tolerant so `value()` can feed it directly.
bool parse_i64(const char* s, long long* out) {
  std::int64_t v = 0;
  if (s == nullptr || !sim::parse_i64(s, &v)) return false;
  *out = v;
  return true;
}

/// Parse the command line. Every rejection names the failing flag on
/// stderr (the caller follows up with the usage text), so "--bytes 4k"
/// fails as "invalid value '4k' for '--bytes'", not as a silent exit 2.
bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) {
    std::fprintf(stderr, "rtrsim_cli: missing command\n");
    return false;
  }
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string opt = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto bad = [&](const char* v) {
      if (v == nullptr) {
        std::fprintf(stderr, "rtrsim_cli: missing value for '%s'\n",
                     opt.c_str());
      } else {
        std::fprintf(stderr, "rtrsim_cli: invalid value '%s' for '%s'\n", v,
                     opt.c_str());
      }
      return false;
    };
    if (opt == "--system") {
      const char* v = value();
      if (!v) return bad(v);
      if (std::string(v) == "dual") {
        a.dual = true;
        a.system = 64;
      } else {
        long long n = 0;
        if (!parse_i64(v, &n) || (n != 32 && n != 64)) return bad(v);
        a.system = static_cast<int>(n);
      }
    } else if (opt == "--task") {
      const char* v = value();
      if (!v) return bad(v);
      a.task = v;
    } else if (opt == "--bytes") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > UINT32_MAX) return bad(v);
      a.bytes = static_cast<std::uint32_t>(n);
    } else if (opt == "--image") {
      const char* v = value();
      if (!v || !sim::parse_dims(v, &a.img_w, &a.img_h)) return bad(v);
    } else if (opt == "--dma") {
      a.dma = true;
    } else if (opt == "--cache") {
      a.cache = true;
    } else if (opt == "--trace-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.trace_out = v;
    } else if (opt == "--trace-format") {
      const char* v = value();
      if (!v) return bad(v);
      a.trace_format = v;
      if (a.trace_format != "chrome" && a.trace_format != "text") {
        return bad(v);
      }
    } else if (opt == "--stats-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.stats_out = v;
    } else if (opt == "--stats-format") {
      const char* v = value();
      if (!v) return bad(v);
      a.stats_format = v;
      if (a.stats_format != "json" && a.stats_format != "csv") return bad(v);
    } else if (opt == "-j" || opt == "--jobs") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 1024) return bad(v);
      a.jobs = static_cast<int>(n);
    } else if (opt == "--smoke") {
      a.smoke = true;
    } else if (opt == "--no-plan-cache") {
      a.plan_cache = false;
    } else if (opt == "--fault-spec") {
      const char* v = value();
      if (!v) return bad(v);
      a.fault_specs.emplace_back(v);
    } else if (opt == "--seed") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0) return bad(v);
      a.fault_seed = static_cast<std::uint64_t>(n);
    } else if (opt == "--bench-out") {
      const char* v = value();
      if (!v) return bad(v);
      a.bench_out = v;
    } else if (opt == "--workload") {
      const char* v = value();
      if (!v || (serve::workload_by_name(v) == nullptr &&
                 serve::open_workload_by_name(v) == nullptr)) {
        return bad(v);
      }
      a.workload = v;
    } else if (opt == "--repair-at") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0) return bad(v);
      a.repair_at = static_cast<int>(n);
    } else if (opt == "--slo") {
      const char* v = value();
      serve::SloSpec spec;
      if (!v || !serve::SloSpec::parse(v, &spec)) return bad(v);
      a.slos.push_back(spec);
    } else if (opt == "--incident-dir") {
      const char* v = value();
      if (!v) return bad(v);
      a.incident_dir = v;
    } else if (opt == "--devices") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 256) return bad(v);
      a.devices = static_cast<int>(n);
    } else if (opt == "--mix") {
      const char* v = value();
      if (!v) return bad(v);
      std::vector<int> mix;
      const std::string s = v;
      for (std::size_t i = 0; i <= s.size();) {
        std::size_t j = s.find_first_of(":,", i);
        if (j == std::string::npos) j = s.size();
        long long n = 0;
        if (!parse_i64(s.substr(i, j - i).c_str(), &n) ||
            (n != 32 && n != 64)) {
          return bad(v);
        }
        mix.push_back(static_cast<int>(n));
        i = j + 1;
      }
      a.mix = mix;
      a.mix_text = s;
    } else if (opt == "--steal-threshold") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 1024) return bad(v);
      a.steal_threshold = static_cast<int>(n);
    } else if (opt == "--no-affinity") {
      a.affinity = false;
    } else if (opt == "--areas") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 ||
          n > fabric::DynamicRegion::kMaxAreasXc2vp30) {
        return bad(v);
      }
      a.areas = static_cast<int>(n);
    } else if (opt == "--max-batch") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 64) return bad(v);
      a.max_batch = static_cast<int>(n);
    } else if (opt == "--batch-slack") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 10000000) return bad(v);
      a.batch_slack_us = n;
    } else if (opt == "--requests") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 1000000) return bad(v);
      a.requests = static_cast<int>(n);
    } else if (opt == "--zipf-skew") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 0 || n > 8) return bad(v);
      a.zipf_skew = static_cast<int>(n);
    } else if (opt == "--arrival-us") {
      const char* v = value();
      long long n = 0;
      if (!parse_i64(v, &n) || n < 1 || n > 10000000) return bad(v);
      a.arrival_us = n;
    } else if (opt == "--log-level") {
      const char* v = value();
      if (!v) return bad(v);
      a.log_level = v;
      if (a.log_level != "err" && a.log_level != "warn" &&
          a.log_level != "info" && a.log_level != "trace") {
        return bad(v);
      }
    } else {
      std::fprintf(stderr, "rtrsim_cli: unknown option '%s'\n", opt.c_str());
      return false;
    }
  }
  return true;
}

/// Apply --log-level: install the stderr sink at the requested threshold.
void apply_log_level(sim::Simulation& sim, const Args& a) {
  if (a.log_level.empty()) return;
  sim::LogLevel lvl = sim::LogLevel::kWarn;
  if (a.log_level == "err") lvl = sim::LogLevel::kError;
  else if (a.log_level == "warn") lvl = sim::LogLevel::kWarn;
  else if (a.log_level == "info") lvl = sim::LogLevel::kInfo;
  else if (a.log_level == "trace") lvl = sim::LogLevel::kTrace;
  sim.logger().set_level(lvl);
  sim.logger().set_sink(sim::Logger::stderr_sink());
}

/// Write --trace-out (unless `tracer` is null) and --stats-out files.
/// Returns 0, or 1 when a file cannot be opened.
int dump_observability(const sim::StatRegistry& stats,
                       const trace::Tracer* tracer, const Args& a) {
  if (tracer != nullptr && !a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", a.trace_out.c_str());
      return 1;
    }
    if (a.trace_format == "text") {
      tracer->export_timeline(f);
    } else {
      tracer->export_chrome(f);
    }
  }
  if (!a.stats_out.empty()) {
    std::ofstream f(a.stats_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", a.stats_out.c_str());
      return 1;
    }
    if (a.stats_format == "csv") {
      stats.export_csv(f);
    } else {
      stats.export_json(f);
    }
  }
  return 0;
}

/// Parse every --fault-spec into `plan`. False (with a stderr note) on a
/// malformed spec.
bool build_fault_plan(const Args& a, fault::FaultPlan* plan) {
  for (const std::string& s : a.fault_specs) {
    fault::FaultSpec spec;
    if (!fault::FaultSpec::parse(s, &spec)) {
      std::fprintf(stderr,
                   "bad --fault-spec '%s' (want site:trigger:seed[:device], "
                   "e.g. icap:once@20000:1)\n",
                   s.c_str());
      return false;
    }
    plan->add(spec);
  }
  return true;
}

/// Deterministic one-line injection summary for run/reconfig with faults
/// armed (simulated quantities only).
void print_fault_summary(fault::FaultInjector* fi) {
  if (fi == nullptr) return;
  std::printf("faults: injected=%lld (storage=%lld icap=%lld dma=%lld "
              "bus=%lld readback=%lld fail_stop=%lld brownout=%lld)\n",
              static_cast<long long>(fi->injected_total()),
              static_cast<long long>(fi->injected(fault::Site::kConfigStorage)),
              static_cast<long long>(fi->injected(fault::Site::kIcap)),
              static_cast<long long>(fi->injected(fault::Site::kDma)),
              static_cast<long long>(fi->injected(fault::Site::kBus)),
              static_cast<long long>(fi->injected(fault::Site::kReadback)),
              static_cast<long long>(fi->injected(fault::Site::kFailStop)),
              static_cast<long long>(fi->injected(fault::Site::kBrownout)));
}

hw::BehaviorId behavior_of(const std::string& task) {
  if (task == "jenkins") return hw::kJenkinsHash;
  if (task == "sha1") return hw::kSha1;
  if (task == "patmatch") return hw::kPatternMatcher;
  if (task == "brightness") return hw::kBrightness;
  if (task == "blend") return hw::kBlendAdd;
  if (task == "fade") return hw::kFade;
  if (task == "loopback") return hw::kLoopback;
  RTR_CHECK(false, "unknown task name");
  __builtin_unreachable();
}

/// Outcome of one task execution (software baseline + hardware version),
/// print-free so both the interactive `run` command and the parallel sweep
/// driver share it. All fields are simulated quantities and therefore
/// deterministic for a given (platform, task, parameters).
struct TaskOutcome {
  sim::SimTime sw_time, hw_time;
  bool match = true;
  // patmatch detail (for the run command's report line)
  int pm_count = 0, pm_row = 0, pm_col = 0;
};

/// Stage deterministic inputs, run the software and hardware versions of
/// `a.task` and cross-check them. The module must already be loaded.
/// Handles every task except loopback (which has no sw/hw split).
template <typename Platform>
TaskOutcome exec_task(const Args& a, Platform& p) {
  const Addr in = Platform::kConfigStaging - 0x0100'0000;
  const Addr in_b = Platform::kConfigStaging - 0x00C0'0000;
  const Addr out = Platform::kConfigStaging - 0x0080'0000;
  const Addr scratch = Platform::kConfigStaging - 0x0040'0000;

  sim::Rng rng{2026};
  TaskOutcome r;

  if (a.task == "jenkins" || a.task == "sha1") {
    std::vector<std::uint8_t> msg(a.bytes);
    for (auto& b : msg) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, msg);
    auto t0 = p.kernel().now();
    if (a.task == "jenkins") {
      const auto sw = apps::sw_jenkins(p.kernel(), in, a.bytes);
      r.sw_time = p.kernel().now() - t0;
      t0 = p.kernel().now();
      const auto hw =
          apps::hw_jenkins_pio(p.kernel(), Platform::dock_data(), in, a.bytes);
      r.hw_time = p.kernel().now() - t0;
      r.match = sw == hw && sw == apps::jenkins_hash(msg);
    } else {
      const auto sw = apps::sw_sha1(p.kernel(), in, a.bytes, scratch);
      r.sw_time = p.kernel().now() - t0;
      t0 = p.kernel().now();
      const auto hw =
          apps::hw_sha1_pio(p.kernel(), Platform::dock_data(), in, a.bytes);
      r.hw_time = p.kernel().now() - t0;
      r.match = sw == hw && sw == apps::sha1(msg);
    }
  } else if (a.task == "patmatch") {
    apps::BinaryImage img = apps::BinaryImage::make(a.img_w, a.img_h);
    for (auto& w : img.words) w = rng.next_u32() & rng.next_u32();
    apps::Pattern8x8 pat;
    for (auto& row : pat) row = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, apps::to_bytes(img));
    std::vector<std::uint8_t> pb(64);
    for (int i = 0; i < 64; ++i) {
      pb[static_cast<std::size_t>(i)] =
          (pat[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
    }
    apps::store_bytes(p.cpu().plb(), in_b, pb);
    auto t0 = p.kernel().now();
    const auto sw = apps::sw_pattern_match(p.kernel(), in, a.img_w, a.img_h, in_b);
    r.sw_time = p.kernel().now() - t0;
    t0 = p.kernel().now();
    const auto hw = apps::hw_pattern_match_pio(p.kernel(), Platform::dock_data(),
                                               in, a.img_w, a.img_h, in_b);
    r.hw_time = p.kernel().now() - t0;
    r.match = sw.best_count == hw.best_count && sw.best_row == hw.best_row &&
              sw.best_col == hw.best_col;
    r.pm_count = hw.best_count;
    r.pm_row = hw.best_row;
    r.pm_col = hw.best_col;
  } else if (a.task == "brightness" || a.task == "blend" || a.task == "fade") {
    const int n = a.img_w * a.img_h;
    apps::GrayImage ia = apps::GrayImage::make(a.img_w, a.img_h);
    apps::GrayImage ib = apps::GrayImage::make(a.img_w, a.img_h);
    for (auto& px : ia.pixels) px = rng.next_u8();
    for (auto& px : ib.pixels) px = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, ia.pixels);
    apps::store_bytes(p.cpu().plb(), in_b, ib.pixels);

    std::vector<std::uint8_t> want;
    auto t0 = p.kernel().now();
    if (a.task == "brightness") {
      apps::sw_brightness(p.kernel(), in, out, n, 60);
      want = apps::brightness(ia, 60).pixels;
    } else if (a.task == "blend") {
      apps::sw_blend(p.kernel(), in, in_b, out, n);
      want = apps::blend_add(ia, ib).pixels;
    } else {
      apps::sw_fade(p.kernel(), in, in_b, out, n, 160);
      want = apps::fade(ia, ib, 160).pixels;
    }
    r.sw_time = p.kernel().now() - t0;
    r.match = apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;

    t0 = p.kernel().now();
    if constexpr (std::is_same_v<Platform, Platform64>) {
      if (a.dma) {
        if (a.task == "brightness") {
          apps::hw_brightness_dma(p, in, out, n, 60);
        } else if (a.task == "blend") {
          apps::hw_blend_dma(p, in, in_b, scratch, out, n);
        } else {
          apps::hw_fade_dma(p, in, in_b, scratch, out, n, 160);
        }
        r.hw_time = p.kernel().now() - t0;
        r.match = r.match &&
                  apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;
      }
    }
    if (r.hw_time == sim::SimTime::zero()) {
      if (a.task == "brightness") {
        apps::hw_brightness_pio(p.kernel(), Platform::dock_data(), in, out, n, 60);
      } else if (a.task == "blend") {
        apps::hw_blend_pio(p.kernel(), Platform::dock_data(), in, in_b, out, n);
      } else {
        apps::hw_fade_pio(p.kernel(), Platform::dock_data(), in, in_b, out, n, 160);
      }
      r.hw_time = p.kernel().now() - t0;
      r.match = r.match &&
                apps::fetch_bytes(p.cpu().plb(), out, want.size()) == want;
    }
  }
  return r;
}

template <typename Platform>
int run_task_inner(const Args& a, Platform& p) {
  const Addr in = Platform::kConfigStaging - 0x0100'0000;

  ReconfigStats load;
  if constexpr (std::is_same_v<Platform, Platform64>) {
    load = a.dma ? p.load_module_dma(behavior_of(a.task))
                 : p.load_module(behavior_of(a.task));
  } else {
    load = p.load_module(behavior_of(a.task));
  }
  if (!load.ok) {
    std::printf("load failed: %s\n", load.error.c_str());
    return 1;
  }
  std::printf("system %d, task %s: module loaded in %s (%lld KB)\n", a.system,
              a.task.c_str(), load.duration().to_string().c_str(),
              static_cast<long long>(load.config_bytes / 1024));

  if (a.task == "loopback") {
    sim::Rng rng{2026};
    std::vector<std::uint8_t> data(a.bytes);
    for (auto& b : data) b = rng.next_u8();
    apps::store_bytes(p.cpu().plb(), in, data);
    const sim::SimTime t = apps::pio_write_seq(
        p.kernel(), in, Platform::dock_data(), static_cast<int>(a.bytes / 4));
    std::printf("%u bytes written to the dock in %s\n", a.bytes,
                t.to_string().c_str());
    return 0;
  }

  const TaskOutcome r = exec_task(a, p);
  if (a.task == "patmatch") {
    std::printf("best match %d/64 at (%d,%d)\n", r.pm_count, r.pm_row,
                r.pm_col);
  }
  std::printf("software: %s\nhardware: %s%s\nspeedup : %.2fx\nresults : %s\n",
              r.sw_time.to_string().c_str(), r.hw_time.to_string().c_str(),
              a.dma ? " (DMA)" : " (PIO)",
              static_cast<double>(r.sw_time.ps()) /
                  static_cast<double>(r.hw_time.ps()),
              r.match ? "sw == hw == golden" : "MISMATCH");
  return r.match ? 0 : 1;
}

/// Build the platform with observability wired in, run the task, then dump
/// the requested trace/stats files (also on failure: a failed run's trace is
/// exactly when you want one).
template <typename Platform>
int run_task(const Args& a) {
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty());
  PlatformOptions opts;
  opts.enable_dcache = a.cache;
  opts.tracer = &tracer;
  if (!build_fault_plan(a, &opts.fault_plan)) return 2;
  Platform p{opts};
  apply_log_level(p.sim(), a);
  const int rc = run_task_inner(a, p);
  if (!a.fault_specs.empty()) print_fault_summary(p.faults());
  const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
  return rc != 0 ? rc : dump_rc;
}

// ---------------------------------------------------------------------------
// sweep: parallel scenario fan-out with deterministic output.
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  int system;  // 32 or 64
  const char* task;
  bool dma;  // Platform64 only: DMA configuration load + DMA data movement
  std::uint32_t bytes;
  int img_w, img_h;
};

// Fixed scenario list: every task on both platforms (sha1 does not fit the
// 32-bit device's dock, so it only appears on 64), plus the DMA variants.
constexpr Scenario kSweepScenarios[] = {
    {"p32-jenkins", 32, "jenkins", false, 16384, 0, 0},
    {"p32-patmatch", 32, "patmatch", false, 0, 96, 64},
    {"p32-brightness", 32, "brightness", false, 0, 160, 120},
    {"p32-blend", 32, "blend", false, 0, 160, 120},
    {"p32-fade", 32, "fade", false, 0, 160, 120},
    {"p64-jenkins", 64, "jenkins", false, 16384, 0, 0},
    {"p64-sha1", 64, "sha1", false, 16384, 0, 0},
    {"p64-patmatch", 64, "patmatch", false, 0, 96, 64},
    {"p64-brightness", 64, "brightness", false, 0, 160, 120},
    {"p64-blend", 64, "blend", false, 0, 160, 120},
    {"p64-fade", 64, "fade", false, 0, 160, 120},
    {"p64-brightness-dma", 64, "brightness", true, 0, 160, 120},
    {"p64-blend-dma", 64, "blend", true, 0, 160, 120},
    {"p64-fade-dma", 64, "fade", true, 0, 160, 120},
    {"p64-sha1-dma", 64, "sha1", true, 16384, 0, 0},
};

/// CI subset: one 32-bit scenario, one plain 64-bit, one DMA.
constexpr std::size_t kSmokeIndices[] = {0, 6, 13};

struct SweepOutcome {
  std::string line;  // rendered report: simulated quantities only
  bool ok = false;
  long long plb_txns = 0;
  long long plb_beats = 0;
  long long opb_txns = 0;
};

/// Run one scenario on a freshly built platform. Everything this returns is
/// a function of the scenario alone (fixed input seed, single-threaded
/// simulation), so results are independent of worker scheduling.
template <typename Platform>
SweepOutcome sweep_one(const Scenario& sc) {
  Args a;
  a.system = sc.system;
  a.task = sc.task;
  a.dma = sc.dma;
  a.bytes = sc.bytes;
  if (sc.img_w > 0) {
    a.img_w = sc.img_w;
    a.img_h = sc.img_h;
  }

  SweepOutcome o;
  Platform p;
  ReconfigStats load;
  if constexpr (std::is_same_v<Platform, Platform64>) {
    load = sc.dma ? p.load_module_dma(behavior_of(a.task))
                  : p.load_module(behavior_of(a.task));
  } else {
    load = p.load_module(behavior_of(a.task));
  }
  if (!load.ok) {
    o.line = std::string(sc.name) + ": load failed: " + load.error;
    return o;
  }
  const TaskOutcome r = exec_task(a, p);
  o.plb_txns = p.sim().stats().counter("PLB.transactions").value();
  o.plb_beats = p.sim().stats().counter("PLB.beats").value();
  o.opb_txns = p.sim().stats().counter("OPB.transactions").value();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-18s load=%-12s sw=%-12s hw=%-12s speedup=%6.2fx "
                "plb.txns=%-7lld %s",
                sc.name, load.duration().to_string().c_str(),
                r.sw_time.to_string().c_str(), r.hw_time.to_string().c_str(),
                static_cast<double>(r.sw_time.ps()) /
                    static_cast<double>(r.hw_time.ps()),
                o.plb_txns, r.match ? "ok" : "MISMATCH");
  o.line = buf;
  o.ok = r.match;
  return o;
}

/// Best-of-`reps` host time of `body`, in nanoseconds. A minimum over
/// repetitions is the standard way to suppress scheduler noise when
/// recording a baseline.
template <typename F>
double best_ns(F&& body, int reps = 7) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return best;
}

/// Substrate primitive timings, mirroring bench/microbench.cpp bodies (and
/// keyed by the same names) so the committed baseline and the google-
/// benchmark numbers are directly comparable.
struct PrimitiveTimes {
  double schedule_run_ns = 0;
  double same_time_batch_ns = 0;
  double block_copy_ns = 0;
  double incremental_diff_ns = 0;
};

PrimitiveTimes measure_primitives() {
  PrimitiveTimes t;
  int sink = 0;
  t.schedule_run_ns = best_ns([&] {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(sim::SimTime::from_ns(i), [&](sim::SimTime) { ++sink; });
    }
    q.drain();
  });
  t.same_time_batch_ns = best_ns([&] {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(sim::SimTime::from_us(1), [&](sim::SimTime) { ++sink; });
    }
    q.drain();
  });
  {
    mem::SparseMemory m{1u << 20};
    std::vector<std::uint8_t> in(64 * 1024, 0x5A);
    std::vector<std::uint8_t> out(in.size());
    t.block_copy_ns = best_ns([&] {
      m.write_block(1000, in);
      m.read_block(1000, out);
    });
    sink += out[0];
  }
  {
    fabric::ConfigMemory a{fabric::Device::xc2vp30()};
    fabric::ConfigMemory b{fabric::Device::xc2vp30()};
    const std::uint32_t patch[4] = {1, 2, 3, 4};
    for (int maj = 0; maj < 4; ++maj) {
      b.write_words(fabric::FrameAddress{fabric::ColumnType::kClb, maj, 0}, 2,
                    patch);
    }
    t.incremental_diff_ns =
        best_ns([&] { sink += fabric::ConfigMemory::diff_frames(a, b); });
  }
  // Defeat whole-benchmark elision without google-benchmark's helpers.
  asm volatile("" : : "r"(sink) : "memory");
  return t;
}

bool write_bench_json(const std::string& path, const PrimitiveTimes& t,
                      std::size_t scenarios, int jobs, double wall_ms) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"schema\": \"rtrsim-substrate-bench-v1\",\n"
                "  \"primitives_ns_per_op\": {\n"
                "    \"BM_EventQueueScheduleRun\": %.1f,\n"
                "    \"BM_EventQueueSameTimeBatch\": %.1f,\n"
                "    \"BM_SparseMemoryBlockCopy\": %.1f,\n"
                "    \"BM_ConfigMemoryIncrementalDiff\": %.1f\n"
                "  },\n"
                "  \"sweep\": {\n"
                "    \"scenarios\": %zu,\n"
                "    \"jobs\": %d,\n"
                "    \"wall_ms\": %.1f,\n"
                "    \"scenarios_per_sec\": %.2f\n"
                "  }\n"
                "}\n",
                t.schedule_run_ns, t.same_time_batch_ns, t.block_copy_ns,
                t.incremental_diff_ns, scenarios, jobs, wall_ms,
                wall_ms > 0 ? 1000.0 * static_cast<double>(scenarios) / wall_ms
                            : 0.0);
  f << buf;
  return static_cast<bool>(f);
}

int sweep(const Args& a) {
  std::vector<Scenario> list;
  if (a.smoke) {
    for (const std::size_t i : kSmokeIndices) list.push_back(kSweepScenarios[i]);
  } else {
    list.assign(std::begin(kSweepScenarios), std::end(kSweepScenarios));
  }

  const int jobs = sim::default_jobs(a.jobs);
  std::vector<SweepOutcome> results(list.size());
  const auto wall0 = std::chrono::steady_clock::now();
  sim::for_each_slot(list.size(), jobs, [&](std::size_t i) {
    results[i] = list[i].system == 32 ? sweep_one<Platform32>(list[i])
                                      : sweep_one<Platform64>(list[i]);
  });
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();

  // Deterministic report: scenario order, simulated quantities only.
  // Aggregation goes through a StatRegistry so the sweep summary uses the
  // same machinery (and formatting) as per-simulation stats.
  sim::StatRegistry agg;
  bool all_ok = true;
  for (const SweepOutcome& o : results) {
    std::printf("%s\n", o.line.c_str());
    all_ok = all_ok && o.ok;
    agg.counter("sweep.scenarios").add(1);
    if (!o.ok) agg.counter("sweep.mismatches").add(1);
    agg.counter("sweep.plb.transactions").add(o.plb_txns);
    agg.counter("sweep.plb.beats").add(o.plb_beats);
    agg.counter("sweep.opb.transactions").add(o.opb_txns);
  }
  agg.counter("sweep.mismatches").add(0);  // present even when all pass
  std::printf("aggregate:\n");
  agg.print(std::cout);

  // Host-side timing is non-deterministic by nature: stderr only.
  std::fprintf(stderr, "sweep: %zu scenarios, %d jobs, %.1f ms wall\n",
               list.size(), jobs, wall_ms);

  if (!a.bench_out.empty()) {
    const PrimitiveTimes t = measure_primitives();
    if (!write_bench_json(a.bench_out, t, list.size(), jobs, wall_ms)) {
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// faults: deterministic fault matrix with recovery reporting.
// ---------------------------------------------------------------------------

struct FaultScenario {
  const char* name;
  int system;                // 32 or 64
  const char* task;          // module the manager ensures
  const char* site_trigger;  // "site:trigger"; ":<seed>" appended at runtime
  std::int64_t word;         // storage only: pinned staged word (-1 = seeded)
  bool dma;                  // recover through DMA loads (Platform64)
  bool verify;               // RecoveryPolicy::verify_after_load
  const char* second_task;   // non-empty: second (differential-path) ensure
  const char* expect;        // clean | tolerated | recovered | failed
};

// One seeded fault per site on both platforms. Trigger indexes are placed
// inside the first faulted operation's opportunity stream (a complete
// Platform32 load streams ~33k ICAP words and ~130k bus beats; a DMA load
// moves ~16k beats; a region readback pops tens of thousands of FDRO
// words). The sticky ICAP scenario is expected to exhaust retries and
// fail; the diff scenario faults the differential load and must fall back
// to the complete configuration.
constexpr FaultScenario kFaultScenarios[] = {
    {"p32-storage", 32, "brightness", "storage:once@0", 5000, false, true, "",
     "recovered"},
    {"p32-icap", 32, "brightness", "icap:once@20000", -1, false, true, "",
     "recovered"},
    {"p32-bus", 32, "brightness", "bus:once@60000", -1, false, true, "",
     "recovered"},
    {"p32-readback", 32, "brightness", "readback:once@0", -1, false, true,
     "", "recovered"},
    {"p32-icap-sticky", 32, "brightness", "icap:stuck@15000", -1, false, true,
     "", "failed"},
    {"p32-diff-fallback", 32, "brightness", "icap:once@33500", -1, false,
     false, "fade", "recovered"},
    {"p64-icap", 64, "jenkins", "icap:once@20000", -1, false, true, "",
     "recovered"},
    {"p64-dma", 64, "jenkins", "dma:once@1500", -1, true, true, "",
     "recovered"},
    {"p64-bus", 64, "jenkins", "bus:once@60000", -1, false, true, "",
     "recovered"},
    {"p64-readback", 64, "jenkins", "readback:once@0", -1, false, true, "",
     "recovered"},
};

/// CI subset: every injection site once across both platforms.
constexpr std::size_t kFaultSmokeIndices[] = {0, 1, 2, 7, 9};

/// Run one fault scenario: arm the spec, drive the manager, classify the
/// end state. Everything printed is simulated, so output is a pure
/// function of (scenario, seed).
template <typename Platform>
std::string fault_one(const FaultScenario& sc, std::uint64_t seed, bool* ok) {
  fault::FaultSpec spec;
  RTR_CHECK(fault::FaultSpec::parse(
                std::string(sc.site_trigger) + ":" + std::to_string(seed),
                &spec),
            "bad built-in fault spec");
  if (sc.word >= 0) {
    spec.word = sc.word;
    spec.mask = 0x0100;
  }
  if (spec.site == fault::Site::kReadback) {
    // The verifier only hashes the region's row window of each frame; aim
    // the fault at the middle of that window in the 10th covered frame so
    // the flip is always observable.
    const fabric::DynamicRegion region =
        std::is_same_v<Platform, Platform64>
            ? fabric::DynamicRegion::xc2vp30_region()
            : fabric::DynamicRegion::xc2vp7_region();
    spec.n = 10u * static_cast<std::uint64_t>(
                       region.device().words_per_frame()) +
             static_cast<std::uint64_t>(region.first_word()) +
             static_cast<std::uint64_t>(region.word_count()) / 2;
  }
  const std::string text = spec.to_string();
  PlatformOptions opts;
  opts.fault_plan.add(spec);
  Platform p{opts};
  RecoveryPolicy pol;
  pol.verify_after_load = sc.verify;
  pol.use_dma = sc.dma;
  ModuleManager<Platform> mgr{p, pol};
  const int w = std::is_same_v<Platform, Platform64> ? 64 : 32;

  EnsureStats res = mgr.ensure(behavior_of(sc.task), w);
  if (sc.second_task[0] != '\0') {
    res = mgr.ensure(behavior_of(sc.second_task), w);
  }

  fault::FaultInjector* fi = p.faults();
  // The scenario is over: disarm everything so the final golden check
  // observes the fabric, not the fault model.
  fi->repair_all();
  const int target =
      behavior_of(sc.second_task[0] != '\0' ? sc.second_task : sc.task);
  const bool golden =
      res.ok && p.region().scan_signature(p.fabric_state()) == target &&
      readback_verify(p.kernel(), Platform::kIcapRange.base, p.region()).ok;

  const char* outcome = "failed";
  if (fi->injected_total() == 0) {
    outcome = "clean";
  } else if (!res.detected) {
    if (golden) outcome = "tolerated";
  } else if (golden) {
    outcome = "recovered";
  }
  *ok = std::string(outcome) == sc.expect;

  const std::string latency =
      res.detected && fi->injected_total() > 0
          ? (res.detected_at - fi->first_injection()).to_string()
          : "-";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-18s spec=%-22s inj=%-2lld det=%s lat=%-10s att=%d ret=%d "
                "scr=%d fb=%s outcome=%-9s expect=%-9s %s",
                sc.name, text.c_str(),
                static_cast<long long>(fi->injected_total()),
                res.detected ? "y" : "n", latency.c_str(), res.attempts,
                res.retries, res.scrubs, res.fell_back ? "y" : "n", outcome,
                sc.expect, *ok ? "ok" : "MISMATCH");
  return buf;
}

int faults_cmd(const Args& a) {
  std::vector<std::size_t> idx;
  if (a.smoke) {
    idx.assign(std::begin(kFaultSmokeIndices), std::end(kFaultSmokeIndices));
  } else {
    for (std::size_t i = 0; i < std::size(kFaultScenarios); ++i) {
      idx.push_back(i);
    }
  }
  std::printf("fault matrix: %zu scenarios, seed=%llu\n", idx.size(),
              static_cast<unsigned long long>(a.fault_seed));
  bool all_ok = true;
  for (const std::size_t i : idx) {
    const FaultScenario& sc = kFaultScenarios[i];
    bool ok = false;
    const std::string line = sc.system == 32
                                 ? fault_one<Platform32>(sc, a.fault_seed, &ok)
                                 : fault_one<Platform64>(sc, a.fault_seed, &ok);
    std::printf("%s\n", line.c_str());
    all_ok = all_ok && ok;
  }
  std::printf("%s\n", all_ok ? "all scenarios matched expectations"
                             : "EXPECTATION MISMATCH");
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve: request-serving scenario matrix / single named workload.
// ---------------------------------------------------------------------------

struct ServeScenario {
  const char* name;
  int system;            // 32 or 64
  const char* workload;  // named WorkloadSpec
  const char* fault;     // "" = none; "site:trigger" (":<seed>" appended)
  bool dma;              // recover module loads through DMA (Platform64)
  int repair_at;         // FaultInjector::repair_all after N dispositions
  int budget_ms;         // watchdog budget; 0 = ServeOptions default
  // Self-check expectations: what this scenario MUST exhibit (and, for
  // clean scenarios, must not).
  bool expect_shed;
  bool expect_watchdog;
  bool expect_breaker_cycle;  // breaker opened AND a probe closed it again
  bool expect_degraded;
};

// Clean scenarios cover both platforms and every workload shape (including
// "burst", whose queue is smaller than its client population, and "hash"
// on the 32-bit system, where SHA-1 cannot be placed and is served by the
// software kernel for the whole run). The stuck-fault scenarios are the
// acceptance path of docs/SERVING.md: the watchdog must abort the hung
// load, the breaker must open, requests must degrade instead of hanging,
// and after field repair a half-open probe must restore hardware service.
// The stuck scenarios tighten the watchdog budget to just above one clean
// load on their platform (a clean p32 PIO load is ~24 ms, a p64 DMA load
// ~12 ms), so the stuck retry ladder is cut off on its second attempt.
constexpr ServeScenario kServeScenarios[] = {
    {"p32-mixed", 32, "mixed", "", false, -1, 0, false, false, false, false},
    {"p32-hash", 32, "hash", "", false, -1, 0, false, false, false, true},
    {"p32-burst", 32, "burst", "", false, -1, 0, true, false, false, false},
    {"p64-mixed", 64, "mixed", "", false, -1, 0, false, false, false, false},
    {"p64-image", 64, "image", "", false, -1, 0, false, false, false, false},
    {"p64-hash-dma", 64, "hash", "", true, -1, 0, false, false, false,
     false},
    {"p32-icap-stuck", 32, "steady", "icap:stuck@15000", false, 6, 40, false,
     true, true, true},
    {"p64-dma-stuck", 64, "steady", "dma:stuck@1500", true, 6, 20, false,
     true, true, true},
};

/// CI subset: one clean scenario per platform, shedding, both stuck faults.
constexpr std::size_t kServeSmokeIndices[] = {0, 2, 6, 7};

struct ServeScenarioOutcome {
  std::string line;
  bool ok = false;
  sim::StatRegistry stats;  // the scenario's whole registry, for merging
};

/// One scenario on a freshly built platform: a pure function of
/// (scenario, seed), independent of worker scheduling.
template <typename Platform>
ServeScenarioOutcome serve_scenario(const ServeScenario& sc,
                                    std::uint64_t seed, bool plan_cache,
                                    const std::vector<serve::SloSpec>& slos,
                                    int areas) {
  const serve::WorkloadSpec* w = serve::workload_by_name(sc.workload);
  RTR_CHECK(w != nullptr, "unknown built-in workload");
  PlatformOptions opts;
  opts.dynamic_areas = areas;
  if (sc.fault[0] != '\0') {
    fault::FaultSpec spec;
    RTR_CHECK(fault::FaultSpec::parse(
                  std::string(sc.fault) + ":" + std::to_string(seed), &spec),
              "bad built-in fault spec");
    opts.fault_plan.add(spec);
  }
  Platform p{opts};
  serve::ServeOptions so;
  so.recovery.use_dma = sc.dma;
  so.plan_cache = plan_cache;
  so.slos = slos;
  if (sc.budget_ms > 0) {
    so.hw_attempt_budget = sim::SimTime::from_ms(sc.budget_ms);
  }
  const serve::ServeReport r =
      serve::run_workload(p, *w, seed, so, sc.repair_at);

  bool ok = r.digests_ok && r.failed == 0 && r.unservable == 0;
  ok = ok && sc.expect_shed == (r.shed > 0);
  ok = ok && sc.expect_watchdog == (r.watchdog_aborts > 0);
  ok = ok && sc.expect_breaker_cycle ==
                 (r.breaker_opens > 0 && r.breaker_closes > 0);
  ok = ok && sc.expect_degraded == (r.degraded > 0);

  const auto& lat = p.sim().stats().histogram("serve.latency_ps");
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-15s wl=%-7s sub=%-3lld hw=%-3lld sw=%-3lld shed=%-2lld exp=%-2lld "
      "miss=%-2lld wd=%-2lld brk=%lld/%lld p50=%-10s %s",
      sc.name, sc.workload, static_cast<long long>(r.submitted),
      static_cast<long long>(r.served_hw), static_cast<long long>(r.degraded),
      static_cast<long long>(r.shed), static_cast<long long>(r.expired),
      static_cast<long long>(r.deadline_miss),
      static_cast<long long>(r.watchdog_aborts),
      static_cast<long long>(r.breaker_opens),
      static_cast<long long>(r.breaker_closes),
      sim::SimTime::from_ps(static_cast<std::int64_t>(lat.p50()))
          .to_string()
          .c_str(),
      ok ? "ok" : "MISMATCH");

  ServeScenarioOutcome o;
  o.line = buf;
  o.ok = ok;
  o.stats = p.sim().stats();
  return o;
}

/// Print the serve.* slice of a (merged) registry: the serving layer's
/// counters plus latency percentiles, nothing from the lower layers.
void print_serve_stats(const sim::StatRegistry& reg) {
  for (const auto& [name, c] : reg.counters()) {
    if (name.rfind("serve.", 0) == 0) {
      std::printf("  %-24s %lld\n", name.c_str(),
                  static_cast<long long>(c.value()));
    }
  }
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("serve.", 0) == 0 && h.count() > 0) {
      std::printf("  %-24s count=%lld p50=%s p90=%s p99=%s p999=%s\n",
                  name.c_str(), static_cast<long long>(h.count()),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p50()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p90()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p99()))
                      .to_string()
                      .c_str(),
                  sim::SimTime::from_ps(static_cast<std::int64_t>(h.p999()))
                      .to_string()
                      .c_str());
    }
  }
}

/// Single named workload on one platform, with optional --fault-spec /
/// --repair-at and the full observability surface (--trace-out records the
/// SERVE track, --stats-out the serve.* stats).
template <typename Platform>
int serve_single(const Args& a) {
  const serve::WorkloadSpec* w = serve::workload_by_name(a.workload);
  const serve::OpenLoopSpec* ow = serve::open_workload_by_name(a.workload);
  RTR_CHECK(w != nullptr || ow != nullptr,
            "workload validated at parse time");
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty() || !a.incident_dir.empty());
  // Recorder-only runs keep the tracer's own store off: retention then
  // lives entirely in the recorder's bounded ring.
  if (a.trace_out.empty()) tracer.set_store_events(false);
  std::optional<trace::FlightRecorder> recorder;
  if (!a.incident_dir.empty()) {
    recorder.emplace(tracer);
    recorder->set_output_dir(a.incident_dir);
  }
  PlatformOptions opts;
  opts.tracer = &tracer;
  opts.dynamic_areas = a.areas;
  if (!build_fault_plan(a, &opts.fault_plan)) return 2;
  Platform p{opts};
  apply_log_level(p.sim(), a);
  if (recorder) {
    p.sim().attach_flight_recorder(*recorder);
    recorder->add_state_provider(
        "stats", [&p](std::ostream& os) { p.sim().stats().export_json(os); });
  }

  serve::ServeOptions so;
  so.recovery.use_dma = a.dma;
  so.plan_cache = a.plan_cache;
  so.slos = a.slos;
  so.batch.max_batch = a.max_batch;
  so.batch.slack_ps = sim::SimTime::from_us(a.batch_slack_us).ps();
  const serve::ServeReport r =
      w != nullptr ? serve::run_workload(p, *w, a.fault_seed, so, a.repair_at)
                   : serve::run_open_workload(p, *ow, a.fault_seed, so);

  std::printf("serve: system %d, workload %s, seed %llu\n", a.system,
              a.workload.c_str(),
              static_cast<unsigned long long>(a.fault_seed));
  print_serve_stats(p.sim().stats());
  for (const serve::SloSpec& s : a.slos) {
    std::printf("slo: %s\n", s.to_string().c_str());
  }
  if (!a.slos.empty()) {
    std::printf("slo breaches: %lld\n",
                static_cast<long long>(r.slo_breaches));
  }
  if (recorder) {
    std::printf("incidents: %zu (%lld triggers, %lld suppressed)\n",
                recorder->incidents().size(),
                static_cast<long long>(recorder->triggers()),
                static_cast<long long>(recorder->suppressed()));
    for (const auto& inc : recorder->incidents()) {
      std::printf("  incident %d: %s req=%lld at=%s\n", inc.index,
                  inc.kind.c_str(), static_cast<long long>(inc.req_id),
                  sim::SimTime::from_ps(inc.at_ps).to_string().c_str());
    }
  }
  std::printf("digests: %s\n", r.digests_ok ? "ok" : "MISMATCH");
  if (!a.fault_specs.empty()) print_fault_summary(p.faults());
  const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
  return r.digests_ok && r.failed == 0 ? dump_rc : 1;
}

/// Host ns per disposed request of the serve hot path: a steady workload
/// with tracing disabled and the plan cache on, best-of-reps. This is the
/// overhead-gate baseline -- CI fails the microbench smoke when
/// instrumentation regresses it by more than 5% against the committed
/// BENCH_serve.json. Mirrors bench/microbench.cpp's BM_ServeSteadyHot.
double measure_serve_hot_ns_per_req() {
  const serve::WorkloadSpec* w = serve::workload_by_name("steady");
  RTR_CHECK(w != nullptr, "steady workload exists");
  std::int64_t disposed = 0;
  const double ns = best_ns(
      [&] {
        Platform32 p;
        serve::ServeOptions so;
        const serve::ServeReport r =
            serve::run_workload(p, *w, /*seed=*/1, so);
        disposed = static_cast<std::int64_t>(r.completions.size());
        asm volatile("" : : "r"(disposed) : "memory");
      },
      /*reps=*/5);
  return disposed > 0 ? ns / static_cast<double>(disposed) : 0.0;
}

/// Tail-latency source for the serve bench: the "heavy" workload (1280
/// requests) on the 32-bit platform. The 8-scenario matrix disposes too
/// few requests for the tail to be populated -- its p99 and p999 sit on
/// the same sample -- so the bench percentiles come from this run instead.
/// Simulated and deterministic: a pure function of (seed, plan_cache).
sim::Histogram serve_bench_latency(std::uint64_t seed, bool plan_cache) {
  const serve::WorkloadSpec* w = serve::workload_by_name("heavy");
  RTR_CHECK(w != nullptr, "heavy workload exists");
  Platform32 p;
  serve::ServeOptions so;
  so.plan_cache = plan_cache;
  (void)serve::run_workload(p, *w, seed, so);
  return p.sim().stats().histogram("serve.latency_ps");
}

/// One arm of the multi-area serve A/B: the "heavy" workload on the 64-bit
/// platform with `areas` co-resident dynamic areas, counting the
/// reconfigurations the device actually streamed (every successful ensure
/// lands in exactly one rtr.ensure.latency_ps.* series; the non-resident
/// three are swaps, "resident" is a warm hit -- possibly a cross-area dock
/// re-bind). Simulated and deterministic per (areas, seed, plan_cache).
struct ServeAreaArm {
  std::int64_t requests = 0;
  std::int64_t swaps = 0;
  std::int64_t complete_loads = 0;  // the complete (full-bitstream) subset
  std::int64_t resident_hits = 0;
  std::int64_t deadline_miss = 0;
  std::int64_t batches = 0;            // serve_batch pops (0 when unbatched)
  std::int64_t coalesced = 0;          // members beyond each batch leader
  std::int64_t chain_descriptors = 0;  // dma.chain.descriptors
  double p50 = 0, p99 = 0, p999 = 0;   // serve.latency_ps percentiles
};

/// `max_batch` = 1 measures the unbatched arm; > 1 enables swap-aware
/// batching with the given admission slack (docs/SERVING.md "Batching").
ServeAreaArm measure_serve_area_arm(int areas, std::uint64_t seed,
                                    bool plan_cache, int max_batch,
                                    std::int64_t slack_ps) {
  const serve::WorkloadSpec* w = serve::workload_by_name("heavy");
  RTR_CHECK(w != nullptr, "heavy workload exists");
  PlatformOptions opts;
  opts.dynamic_areas = areas;
  Platform64 p{opts};
  serve::ServeOptions so;
  so.plan_cache = plan_cache;
  so.batch.max_batch = max_batch;
  so.batch.slack_ps = slack_ps;
  const serve::ServeReport r = serve::run_workload(p, *w, seed, so);
  ServeAreaArm arm;
  arm.requests = static_cast<std::int64_t>(r.completions.size());
  arm.deadline_miss = r.deadline_miss;
  arm.batches = max_batch > 1 ? r.batches : 0;
  arm.coalesced = r.coalesced;
  const auto& hists = p.sim().stats().histograms();
  for (const char* path : {"cached", "differential", "complete"}) {
    const auto it =
        hists.find(std::string("rtr.ensure.latency_ps.") + path);
    if (it != hists.end()) arm.swaps += it->second.count();
  }
  const auto complete = hists.find("rtr.ensure.latency_ps.complete");
  if (complete != hists.end()) {
    arm.complete_loads = complete->second.count();
  }
  const auto hit = hists.find("rtr.ensure.latency_ps.resident");
  if (hit != hists.end()) arm.resident_hits = hit->second.count();
  const auto lat = hists.find("serve.latency_ps");
  if (lat != hists.end() && lat->second.count() > 0) {
    arm.p50 = lat->second.p50();
    arm.p99 = lat->second.p99();
    arm.p999 = lat->second.p999();
  }
  const auto& counters = p.sim().stats().counters();
  const auto cd = counters.find("dma.chain.descriptors");
  if (cd != counters.end()) arm.chain_descriptors = cd->second.value();
  return arm;
}

/// Serve-matrix throughput record (host wall-clock; the simulated outputs
/// above are the determinism surface, this is the perf surface). Mirrors
/// write_bench_json's shape so CI can smoke both baselines the same way.
/// v2 added latency percentiles and the hot-path baseline; v3 takes the
/// percentiles from the >= 1k-request "heavy" workload so p99 and p999
/// are distinct, populated tail statistics; v4 records the matrix's area
/// count and the multi-area A/B (the same heavy workload on the 64-bit
/// platform with 1 vs 2 co-resident areas, docs/PLACEMENT.md); v5 adds the
/// batching A/B (the two-area heavy workload, unbatched vs swap-aware
/// batching, docs/SERVING.md "Batching") with per-arm deadline misses and
/// tail percentiles -- the swap amortization gate and the
/// no-deadline-sacrificed check read this block.
bool write_serve_bench_json(const std::string& path, std::size_t scenarios,
                            int jobs, double wall_ms, bool plan_cache,
                            const sim::Histogram& lat, double hot_ns_per_req,
                            int areas, const ServeAreaArm& one,
                            const ServeAreaArm& two,
                            const ServeAreaArm& batched, int max_batch,
                            long long batch_slack_us) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  char buf[3072];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"schema\": \"rtrsim-serve-bench-v5\",\n"
      "  \"serve\": {\n"
      "    \"scenarios\": %zu,\n"
      "    \"jobs\": %d,\n"
      "    \"areas\": %d,\n"
      "    \"plan_cache\": %s,\n"
      "    \"wall_ms\": %.1f,\n"
      "    \"scenarios_per_sec\": %.2f,\n"
      "    \"latency_workload\": \"heavy\",\n"
      "    \"latency_requests\": %lld,\n"
      "    \"latency_ps\": {\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
      "\"p999\": %.0f},\n"
      "    \"hot_path\": {\"BM_ServeSteadyHot_ns_per_req\": %.1f},\n"
      "    \"multi_area\": {\n"
      "      \"workload\": \"heavy\",\n"
      "      \"system\": 64,\n"
      "      \"requests\": %lld,\n"
      "      \"one_area\": {\"swaps\": %lld, \"complete_loads\": %lld, "
      "\"resident_hits\": %lld},\n"
      "      \"two_areas\": {\"swaps\": %lld, \"complete_loads\": %lld, "
      "\"resident_hits\": %lld},\n"
      "      \"swap_drop\": %.2f\n"
      "    },\n"
      "    \"batching\": {\n"
      "      \"workload\": \"heavy\",\n"
      "      \"system\": 64,\n"
      "      \"areas\": 2,\n"
      "      \"max_batch\": %d,\n"
      "      \"slack_us\": %lld,\n"
      "      \"unbatched\": {\"swaps\": %lld, \"deadline_miss\": %lld, "
      "\"latency_ps\": {\"p50\": %.0f, \"p99\": %.0f, \"p999\": %.0f}},\n"
      "      \"batched\": {\"swaps\": %lld, \"deadline_miss\": %lld, "
      "\"batches\": %lld, \"coalesced\": %lld, "
      "\"chain_descriptors\": %lld, "
      "\"latency_ps\": {\"p50\": %.0f, \"p99\": %.0f, \"p999\": %.0f}},\n"
      "      \"swap_drop\": %.2f\n"
      "    }\n"
      "  }\n"
      "}\n",
      scenarios, jobs, areas, plan_cache ? "true" : "false", wall_ms,
      wall_ms > 0 ? 1000.0 * static_cast<double>(scenarios) / wall_ms : 0.0,
      static_cast<long long>(lat.count()), lat.p50(), lat.p90(), lat.p99(),
      lat.p999(), hot_ns_per_req, static_cast<long long>(one.requests),
      static_cast<long long>(one.swaps),
      static_cast<long long>(one.complete_loads),
      static_cast<long long>(one.resident_hits),
      static_cast<long long>(two.swaps),
      static_cast<long long>(two.complete_loads),
      static_cast<long long>(two.resident_hits),
      two.swaps > 0 ? static_cast<double>(one.swaps) /
                          static_cast<double>(two.swaps)
                    : 0.0,
      max_batch, batch_slack_us, static_cast<long long>(two.swaps),
      static_cast<long long>(two.deadline_miss), two.p50, two.p99, two.p999,
      static_cast<long long>(batched.swaps),
      static_cast<long long>(batched.deadline_miss),
      static_cast<long long>(batched.batches),
      static_cast<long long>(batched.coalesced),
      static_cast<long long>(batched.chain_descriptors), batched.p50,
      batched.p99, batched.p999,
      batched.swaps > 0 ? static_cast<double>(two.swaps) /
                              static_cast<double>(batched.swaps)
                        : 0.0);
  f << buf;
  return static_cast<bool>(f);
}

int serve_cmd(const Args& a) {
  if (!a.workload.empty()) {
    if (a.system == 32 && a.areas > 1) {
      std::fprintf(stderr,
                   "rtrsim_cli: --areas %d requires --system 64 (the XC2VP7 "
                   "hosts a single dynamic area)\n",
                   a.areas);
      return 2;
    }
    return a.system == 32 ? serve_single<Platform32>(a)
                          : serve_single<Platform64>(a);
  }
  if (!a.incident_dir.empty()) {
    std::fprintf(stderr, "rtrsim_cli: --incident-dir requires --workload\n");
    return 2;
  }

  std::vector<ServeScenario> list;
  if (a.smoke) {
    for (const std::size_t i : kServeSmokeIndices) {
      list.push_back(kServeScenarios[i]);
    }
  } else {
    list.assign(std::begin(kServeScenarios), std::end(kServeScenarios));
  }

  // Scenarios land in a results slot fixed by scenario index, so stdout is
  // byte-identical for any -j.
  const int jobs = sim::default_jobs(a.jobs);
  std::vector<ServeScenarioOutcome> results(list.size());
  const auto wall0 = std::chrono::steady_clock::now();
  sim::for_each_slot(list.size(), jobs, [&](std::size_t i) {
    // 32-bit scenarios always run single-area: the XC2VP7 strip has no
    // room for a second column-disjoint area (fabric/dynamic_region).
    results[i] = list[i].system == 32
                     ? serve_scenario<Platform32>(list[i], a.fault_seed,
                                                  a.plan_cache, a.slos, 1)
                     : serve_scenario<Platform64>(list[i], a.fault_seed,
                                                  a.plan_cache, a.slos,
                                                  a.areas);
  });
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();

  std::printf("serve matrix: %zu scenarios, seed=%llu\n", list.size(),
              static_cast<unsigned long long>(a.fault_seed));
  sim::StatRegistry agg;
  bool all_ok = true;
  for (const ServeScenarioOutcome& o : results) {
    std::printf("%s\n", o.line.c_str());
    all_ok = all_ok && o.ok;
    agg.merge(o.stats);
  }
  std::printf("aggregate:\n");
  print_serve_stats(agg);
  std::printf("%s\n", all_ok ? "all scenarios matched expectations"
                             : "EXPECTATION MISMATCH");

  // Host-side timing is non-deterministic by nature: stderr only.
  std::fprintf(stderr, "serve: %zu scenarios, %d jobs, %.1f ms wall\n",
               list.size(), jobs, wall_ms);

  if (!a.bench_out.empty()) {
    const double hot_ns = measure_serve_hot_ns_per_req();
    std::fprintf(stderr, "serve: hot path %.1f ns/req (steady, p32)\n",
                 hot_ns);
    const sim::Histogram lat =
        serve_bench_latency(a.fault_seed, a.plan_cache);
    const std::int64_t slack_ps =
        sim::SimTime::from_us(a.batch_slack_us).ps();
    const int bench_batch = a.max_batch > 1 ? a.max_batch : 8;
    const ServeAreaArm one =
        measure_serve_area_arm(1, a.fault_seed, a.plan_cache, 1, slack_ps);
    const ServeAreaArm two =
        measure_serve_area_arm(2, a.fault_seed, a.plan_cache, 1, slack_ps);
    const ServeAreaArm batched = measure_serve_area_arm(
        2, a.fault_seed, a.plan_cache, bench_batch, slack_ps);
    std::fprintf(stderr,
                 "serve: multi-area heavy/p64 swaps %lld (1 area) vs %lld "
                 "(2 areas)\n",
                 static_cast<long long>(one.swaps),
                 static_cast<long long>(two.swaps));
    std::fprintf(stderr,
                 "serve: batching heavy/p64/2-areas swaps %lld (unbatched) "
                 "vs %lld (max-batch %d), deadline_miss %lld vs %lld\n",
                 static_cast<long long>(two.swaps),
                 static_cast<long long>(batched.swaps), bench_batch,
                 static_cast<long long>(two.deadline_miss),
                 static_cast<long long>(batched.deadline_miss));
    if (!write_serve_bench_json(a.bench_out, list.size(), jobs, wall_ms,
                                a.plan_cache, lat, hot_ns, a.areas, one,
                                two, batched, bench_batch,
                                a.batch_slack_us)) {
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// fleet: N-device serving with reconfiguration-affinity routing.
// ---------------------------------------------------------------------------

/// Requests one serve-matrix scenario submits on average: every workload
/// submits exactly clients x rounds requests, so the matrix total is a
/// constant 91 over its 8 scenarios (mixed 12, hash 9, burst 16, mixed 12,
/// image 9, hash 9, steady 12, steady 12). The fleet bench normalises its
/// aggregate requests/sec by this to report scenario-equivalents/sec
/// directly comparable with BENCH_serve.json's scenarios_per_sec.
constexpr double kServeMatrixRequestsPerScenario = 91.0 / 8.0;

serve::fleet::FleetOptions fleet_options(const Args& a) {
  serve::fleet::FleetOptions fo;
  fo.devices = a.devices;
  fo.mix = a.mix;
  fo.affinity = a.affinity;
  fo.steal_threshold = a.steal_threshold;
  fo.plan_cache = a.plan_cache;
  fo.areas = a.areas;
  fo.batch.max_batch = a.max_batch;
  fo.batch.slack_ps = sim::SimTime::from_us(a.batch_slack_us).ps();
  fo.jobs = sim::default_jobs(a.jobs);
  fo.seed = a.fault_seed;
  return fo;
}

serve::fleet::FleetWorkloadSpec fleet_workload(const Args& a) {
  serve::fleet::FleetWorkloadSpec fw;
  fw.requests = a.requests;
  fw.mean_gap_ps = sim::SimTime::from_us(a.arrival_us).ps();
  fw.zipf_skew = a.zipf_skew;
  return fw;
}

std::string fmt_ps(double ps) {
  return sim::SimTime::from_ps(static_cast<std::int64_t>(ps)).to_string();
}

/// Host ns per routing decision, mirroring BM_FleetRouteDecision: route
/// the full arrival stream through a fresh 8-shard router, best-of-reps.
double measure_fleet_route_ns(const std::vector<serve::Request>& stream,
                              const Args& a) {
  std::vector<int> systems;
  for (int i = 0; i < a.devices; ++i) {
    systems.push_back(a.mix[static_cast<std::size_t>(i) % a.mix.size()]);
  }
  const double ns = best_ns([&] {
    serve::fleet::FleetRouter router(systems, a.affinity, a.steal_threshold,
                                     a.fault_seed);
    for (const serve::Request& r : stream) (void)router.route(r);
    asm volatile("" : : "r"(router.counters().decisions) : "memory");
  });
  return stream.empty() ? 0.0 : ns / static_cast<double>(stream.size());
}

/// v3 adds the batched arm: the identical stream with per-shard swap-aware
/// batching enabled (docs/SERVING.md "Batching"), against the primary
/// (unbatched) run -- the fleet-level swap amortization record.
bool write_fleet_bench_json(const std::string& path, const Args& a,
                            const serve::fleet::FleetReport& fr,
                            double wall_ms,
                            const serve::fleet::FleetReport& fr_rand,
                            double rand_wall_ms,
                            const serve::fleet::FleetReport& fr_single,
                            double single_wall_ms,
                            const serve::fleet::FleetReport& fr_batched,
                            double batched_wall_ms, int bench_batch,
                            double route_ns) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const double rps =
      wall_ms > 0 ? 1000.0 * static_cast<double>(fr.requests) / wall_ms : 0.0;
  const double rand_rps =
      rand_wall_ms > 0
          ? 1000.0 * static_cast<double>(fr_rand.requests) / rand_wall_ms
          : 0.0;
  const auto it = fr.stats.histograms().find("fleet.latency_ps");
  RTR_CHECK(it != fr.stats.histograms().end(), "fleet latency recorded");
  const sim::Histogram& lat = it->second;
  char buf[3072];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"schema\": \"rtrsim-fleet-bench-v3\",\n"
      "  \"fleet\": {\n"
      "    \"devices\": %d,\n"
      "    \"mix\": \"%s\",\n"
      "    \"areas\": %d,\n"
      "    \"jobs\": %d,\n"
      "    \"requests\": %lld,\n"
      "    \"plan_cache\": %s,\n"
      "    \"steal_threshold\": %d,\n"
      "    \"zipf_skew\": %d,\n"
      "    \"arrival_us\": %lld,\n"
      "    \"wall_ms\": %.1f,\n"
      "    \"requests_per_sec\": %.1f,\n"
      "    \"requests_per_scenario\": %.3f,\n"
      "    \"scenarios_per_sec\": %.2f,\n"
      "    \"latency_ps\": {\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
      "\"p999\": %.0f},\n"
      "    \"route\": {\"decisions\": %lld, \"affinity_hits\": %lld, "
      "\"rebalances\": %lld, \"steals\": %lld},\n"
      "    \"served_hw\": %lld,\n"
      "    \"degraded\": %lld,\n"
      "    \"swaps\": %lld,\n"
      "    \"no_affinity\": {\"wall_ms\": %.1f, \"requests_per_sec\": %.1f, "
      "\"swaps\": %lld, \"served_hw\": %lld, \"degraded\": %lld},\n"
      "    \"single_area\": {\"wall_ms\": %.1f, \"swaps\": %lld, "
      "\"served_hw\": %lld, \"degraded\": %lld, \"swap_drop\": %.2f},\n"
      "    \"batched\": {\"max_batch\": %d, \"wall_ms\": %.1f, "
      "\"swaps\": %lld, \"served_hw\": %lld, \"degraded\": %lld, "
      "\"deadline_miss\": %lld, \"swap_drop\": %.2f}\n"
      "  },\n"
      "  \"ns_per_op\": {\"BM_FleetRouteDecision\": %.1f}\n"
      "}\n",
      a.devices, a.mix_text.c_str(), a.areas,
      sim::default_jobs(a.jobs),
      static_cast<long long>(fr.requests), a.plan_cache ? "true" : "false",
      a.steal_threshold, a.zipf_skew, a.arrival_us, wall_ms, rps,
      kServeMatrixRequestsPerScenario,
      rps / kServeMatrixRequestsPerScenario, lat.p50(), lat.p90(), lat.p99(),
      lat.p999(), static_cast<long long>(fr.route.decisions),
      static_cast<long long>(fr.route.affinity_hits),
      static_cast<long long>(fr.route.rebalances),
      static_cast<long long>(fr.route.steals),
      static_cast<long long>(fr.served_hw),
      static_cast<long long>(fr.degraded), static_cast<long long>(fr.swaps),
      rand_wall_ms, rand_rps, static_cast<long long>(fr_rand.swaps),
      static_cast<long long>(fr_rand.served_hw),
      static_cast<long long>(fr_rand.degraded), single_wall_ms,
      static_cast<long long>(fr_single.swaps),
      static_cast<long long>(fr_single.served_hw),
      static_cast<long long>(fr_single.degraded),
      fr.swaps > 0 ? static_cast<double>(fr_single.swaps) /
                         static_cast<double>(fr.swaps)
                   : 0.0,
      bench_batch, batched_wall_ms,
      static_cast<long long>(fr_batched.swaps),
      static_cast<long long>(fr_batched.served_hw),
      static_cast<long long>(fr_batched.degraded),
      static_cast<long long>(fr_batched.deadline_miss),
      fr_batched.swaps > 0 ? static_cast<double>(fr.swaps) /
                                 static_cast<double>(fr_batched.swaps)
                           : 0.0,
      route_ns);
  f << buf;
  return static_cast<bool>(f);
}

int fleet_cmd(const Args& a) {
  const serve::fleet::FleetOptions fo = fleet_options(a);
  const serve::fleet::FleetWorkloadSpec fw = fleet_workload(a);

  const auto wall0 = std::chrono::steady_clock::now();
  const serve::fleet::FleetReport fr = serve::fleet::run_fleet(fo, fw);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();

  // Everything on stdout is simulated/deterministic: the fleet-determinism
  // CI job diffs it across -j values.
  std::printf("fleet: %d devices (mix %s), %d requests, seed=%llu, "
              "affinity=%s, steal-threshold=%d, zipf-skew=%d, areas=%d, "
              "max-batch=%d\n",
              a.devices, a.mix_text.c_str(), a.requests,
              static_cast<unsigned long long>(a.fault_seed),
              a.affinity ? "on" : "off", a.steal_threshold, a.zipf_skew,
              a.areas, a.max_batch);
  for (std::size_t i = 0; i < fr.shards.size(); ++i) {
    const serve::fleet::ShardOutcome& s = fr.shards[i];
    const auto hist =
        s.stats.histograms().find("serve.latency_ps");
    const bool has_lat =
        hist != s.stats.histograms().end() && hist->second.count() > 0;
    std::printf(
        "shard %-2zu sys=%d routed=%-4lld hw=%-4lld sw=%-3lld shed=%-3lld "
        "exp=%-3lld miss=%-3lld swaps=%-3lld p50=%s\n",
        i, s.system, static_cast<long long>(s.routed),
        static_cast<long long>(s.report.served_hw),
        static_cast<long long>(s.report.degraded),
        static_cast<long long>(s.report.shed),
        static_cast<long long>(s.report.expired),
        static_cast<long long>(s.report.deadline_miss),
        static_cast<long long>(s.swaps),
        has_lat ? fmt_ps(hist->second.p50()).c_str() : "-");
  }
  std::printf("route: decisions=%lld affinity_hits=%lld rebalances=%lld "
              "steals=%lld\n",
              static_cast<long long>(fr.route.decisions),
              static_cast<long long>(fr.route.affinity_hits),
              static_cast<long long>(fr.route.rebalances),
              static_cast<long long>(fr.route.steals));
  std::printf("fleet: hw=%lld sw=%lld shed=%lld expired=%lld miss=%lld "
              "swaps=%lld digests=%s\n",
              static_cast<long long>(fr.served_hw),
              static_cast<long long>(fr.degraded),
              static_cast<long long>(fr.shed),
              static_cast<long long>(fr.expired),
              static_cast<long long>(fr.deadline_miss),
              static_cast<long long>(fr.swaps),
              fr.digests_ok ? "ok" : "MISMATCH");
  const auto lat = fr.stats.histograms().find("fleet.latency_ps");
  if (lat != fr.stats.histograms().end() && lat->second.count() > 0) {
    std::printf("fleet latency: count=%lld p50=%s p90=%s p99=%s p999=%s\n",
                static_cast<long long>(lat->second.count()),
                fmt_ps(lat->second.p50()).c_str(),
                fmt_ps(lat->second.p90()).c_str(),
                fmt_ps(lat->second.p99()).c_str(),
                fmt_ps(lat->second.p999()).c_str());
  }

  // Host timing: non-deterministic by nature, stderr only.
  std::fprintf(stderr,
               "fleet: %d requests, %d devices, %d jobs, %.1f ms wall "
               "(%.0f req/s)\n",
               a.requests, a.devices, fo.jobs, wall_ms,
               wall_ms > 0 ? 1000.0 * a.requests / wall_ms : 0.0);

  if (dump_observability(fr.stats, nullptr, a) != 0) return 1;

  if (!a.bench_out.empty()) {
    // A/B arm: the identical stream under seeded-random sharding. Request
    // ids are assigned before routing, so both arms serve identical work
    // and the swap counts compare like for like.
    serve::fleet::FleetOptions rand_fo = fo;
    rand_fo.affinity = false;
    const auto rand0 = std::chrono::steady_clock::now();
    const serve::fleet::FleetReport fr_rand =
        serve::fleet::run_fleet(rand_fo, fw);
    const double rand_wall_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - rand0)
                                    .count();
    // Single-area arm: the identical stream with co-residency disabled
    // (areas=1 everywhere). With --areas 1 the primary run already is that
    // arm, so it is reused rather than re-run.
    serve::fleet::FleetReport fr_single = fr;
    double single_wall_ms = wall_ms;
    if (a.areas > 1) {
      serve::fleet::FleetOptions single_fo = fo;
      single_fo.areas = 1;
      const auto single0 = std::chrono::steady_clock::now();
      fr_single = serve::fleet::run_fleet(single_fo, fw);
      single_wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - single0)
                           .count();
    }
    // Batched arm: the identical stream with per-shard swap-aware batching
    // enabled. With batching already on, the primary run is that arm.
    const int bench_batch = a.max_batch > 1 ? a.max_batch : 8;
    serve::fleet::FleetReport fr_batched = fr;
    double batched_wall_ms = wall_ms;
    if (a.max_batch <= 1) {
      serve::fleet::FleetOptions batched_fo = fo;
      batched_fo.batch.max_batch = bench_batch;
      const auto batched0 = std::chrono::steady_clock::now();
      fr_batched = serve::fleet::run_fleet(batched_fo, fw);
      batched_wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - batched0)
                            .count();
    }
    const std::vector<serve::Request> stream =
        serve::fleet::make_fleet_stream(fw, a.fault_seed);
    const double route_ns = measure_fleet_route_ns(stream, a);
    std::fprintf(stderr,
                 "fleet: no-affinity %.1f ms wall, swaps %lld vs %lld, "
                 "single-area swaps %lld, batched swaps %lld, "
                 "route %.1f ns/decision\n",
                 rand_wall_ms, static_cast<long long>(fr_rand.swaps),
                 static_cast<long long>(fr.swaps),
                 static_cast<long long>(fr_single.swaps),
                 static_cast<long long>(fr_batched.swaps), route_ns);
    if (!write_fleet_bench_json(a.bench_out, a, fr, wall_ms, fr_rand,
                                rand_wall_ms, fr_single, single_wall_ms,
                                fr_batched, batched_wall_ms, bench_batch,
                                route_ns)) {
      return 1;
    }
  }
  return fr.digests_ok && fr.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// chaos: deterministic device-failure matrix over the health-tracking
// fleet (docs/FLEET_HEALTH.md). Every scenario runs three arms on the
// identical arrival stream: a fault-free baseline, the fault plan with the
// HealthTracker on, and the same plan with the tracker off. Goodput
// retained -- completed requests as an integer percentage of the baseline
// -- is the headline number; where the matrix declares a floor the tracker
// arm must hold it while the no-tracker arm demonstrably cannot.
// Everything on stdout is simulated/deterministic (the chaos-determinism
// CI job diffs it across -j values and seeds); host wall-clock goes to
// stderr and the bench JSON only.
// ---------------------------------------------------------------------------

struct ChaosScenario {
  const char* name;
  const char* intent;  // one deterministic line of context
  int devices;
  int requests;
  int zipf_skew;
  /// Mean interarrival gap. The matrix keeps the fleet below saturation on
  /// purpose: an overloaded device arms watchdogs against request
  /// deadlines and opens breakers with no fault present, and those
  /// congestion signals would (correctly, but unhelpfully for an A/B
  /// gate) quarantine healthy devices too.
  long long arrival_us;
  std::vector<const char*> faults;  // specs; seeds are offsets off --seed
  int repair_at_epoch;              // -1 = never (health arm only)
  bool smoke;                       // part of the --smoke subset
  // Expectations -- the exit status and the CI goodput-retention gate.
  int min_tracker_pct;     // tracker-arm goodput floor, -1 = none
  bool expect_separation;  // no-tracker goodput must fall below the floor
  bool expect_readmit;     // a probation -> healthy readmission must occur
  bool expect_no_healthy;  // typed no_healthy_device failures must occur
};

std::vector<ChaosScenario> chaos_matrix() {
  return {
      {"fail-stop-mid",
       "device 0 fail-stops mid-burst; quarantine + re-dispatch to survivors",
       4, 800, 1, 2500, {"fail_stop:stuck@40:0:0"}, -1, true, 90, true,
       false, false},
      {"brownout-churn",
       "device 1 brownout bursts corrupt config loads under uniform churn",
       4, 600, 0, 2500, {"brownout:every@4:0:1"}, -1, false, 90, false,
       false, false},
      {"quarantine-recover",
       "device 2 fail-stops, field repair at epoch 5; must probe + readmit",
       4, 1200, 1, 2500, {"fail_stop:stuck@25:0:2"}, 5, true, 90, true,
       true, false},
      {"all-degraded",
       "every device fail-stops; typed no-healthy-device admission failures",
       4, 400, 1, 2500, {"fail_stop:stuck@30:0"}, -1, false, -1, false,
       false, true},
  };
}

struct ChaosArm {
  serve::fleet::FleetReport fr;
  double wall_ms = 0;
};

/// One arm of one scenario. All three arms share the scenario's workload
/// spec and --seed, so they serve the identical arrival stream.
ChaosArm run_chaos_arm(const ChaosScenario& s, const Args& a, bool faults,
                       bool health, trace::Tracer* tracer) {
  serve::fleet::FleetOptions fo = fleet_options(a);
  fo.devices = s.devices;
  fo.affinity = true;
  fo.plan_cache = true;
  if (faults) {
    for (const char* text : s.faults) {
      fault::FaultSpec spec;
      RTR_CHECK(fault::FaultSpec::parse(text, &spec), "chaos matrix spec");
      spec.seed += a.fault_seed;  // matrix seeds shift with --seed
      fo.fault_plan.add(spec);
    }
    fo.repair_at_epoch = s.repair_at_epoch;
  }
  if (health) {
    fo.health.enabled = true;
    fo.tracer = tracer;
  }
  serve::fleet::FleetWorkloadSpec fw;
  fw.requests = s.requests;
  fw.mean_gap_ps = sim::SimTime::from_us(s.arrival_us).ps();
  fw.zipf_skew = s.zipf_skew;
  ChaosArm arm;
  const auto t0 = std::chrono::steady_clock::now();
  arm.fr = serve::fleet::run_fleet(fo, fw);
  arm.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return arm;
}

std::int64_t chaos_completed(const serve::fleet::FleetReport& fr) {
  return fr.served_hw + fr.degraded;
}

/// Integer percentage (floor division): deterministic on stdout, no
/// floating-point formatting in the diffed output.
int chaos_pct(std::int64_t completed, std::int64_t baseline) {
  return baseline > 0 ? static_cast<int>(completed * 100 / baseline) : 0;
}

int chaos_cmd(const Args& a) {
  trace::Tracer tracer;
  tracer.enable(!a.trace_out.empty());

  const std::vector<ChaosScenario> matrix = chaos_matrix();
  std::size_t selected = 0;
  for (const ChaosScenario& s : matrix) {
    if (!a.smoke || s.smoke) ++selected;
  }
  std::printf("chaos: %zu scenarios, mix %s, seed=%llu%s\n", selected,
              a.mix_text.c_str(),
              static_cast<unsigned long long>(a.fault_seed),
              a.smoke ? " (smoke)" : "");

  sim::StatRegistry all_stats;  // tracker arms merged, for --stats-out
  std::string bench_rows;
  bool all_ok = true;
  double wall_total = 0;
  for (const ChaosScenario& s : matrix) {
    if (a.smoke && !s.smoke) continue;

    const ChaosArm healthy = run_chaos_arm(s, a, false, false, nullptr);
    const ChaosArm tracked = run_chaos_arm(s, a, true, true, &tracer);
    const ChaosArm naive = run_chaos_arm(s, a, true, false, nullptr);
    wall_total += healthy.wall_ms + tracked.wall_ms + naive.wall_ms;

    const std::int64_t base = chaos_completed(healthy.fr);
    const std::int64_t done_t = chaos_completed(tracked.fr);
    const std::int64_t done_n = chaos_completed(naive.fr);
    const int pct_t = chaos_pct(done_t, base);
    const int pct_n = chaos_pct(done_n, base);

    std::string fault_list;
    for (const char* text : s.faults) {
      if (!fault_list.empty()) fault_list += ",";
      fault_list += text;
    }
    std::printf("scenario %s: %d devices, %d requests, zipf=%d, "
                "faults=[%s], repair-epoch=%d\n",
                s.name, s.devices, s.requests, s.zipf_skew,
                fault_list.c_str(), s.repair_at_epoch);
    std::printf("  %s\n", s.intent);
    std::printf("  healthy:    completed=%lld/%d\n",
                static_cast<long long>(base), s.requests);
    std::printf("  tracker:    completed=%lld goodput=%d%% failed=%lld "
                "redispatched=%lld exhausted=%lld no-healthy=%lld\n",
                static_cast<long long>(done_t), pct_t,
                static_cast<long long>(tracked.fr.failed),
                static_cast<long long>(tracked.fr.redispatched),
                static_cast<long long>(tracked.fr.retry_exhausted),
                static_cast<long long>(tracked.fr.no_healthy_device));
    std::printf("  no-tracker: completed=%lld goodput=%d%% failed=%lld\n",
                static_cast<long long>(done_n), pct_n,
                static_cast<long long>(naive.fr.failed));

    // Health transitions, in decision order: the observable trail of the
    // quarantine -> drain -> probation -> readmit machinery.
    std::int64_t quarantines = 0;
    std::int64_t readmits = 0;
    std::string evline;
    for (const serve::fleet::HealthEvent& e : tracked.fr.health_events) {
      if (e.to == serve::fleet::DeviceState::kQuarantined) ++quarantines;
      if (e.from == serve::fleet::DeviceState::kProbation &&
          e.to == serve::fleet::DeviceState::kHealthy) {
        ++readmits;
      }
      evline += " dev" + std::to_string(e.device) + ":" +
                serve::fleet::device_state_name(e.from) + "->" +
                serve::fleet::device_state_name(e.to) + "@e" +
                std::to_string(e.epoch);
    }
    std::printf("  health:%s\n", evline.empty() ? " (none)" : evline.c_str());

    bool ok = true;
    std::string verdicts;
    if (s.min_tracker_pct >= 0) {
      const bool p = pct_t >= s.min_tracker_pct;
      verdicts += " tracker>=" + std::to_string(s.min_tracker_pct) +
                  "%:" + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_separation) {
      const bool p = pct_n < s.min_tracker_pct;
      verdicts += std::string(" no-tracker<") +
                  std::to_string(s.min_tracker_pct) + "%:" +
                  (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_readmit) {
      const bool p = readmits > 0;
      verdicts += std::string(" readmit:") + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    if (s.expect_no_healthy) {
      const bool p = tracked.fr.no_healthy_device > 0;
      verdicts += std::string(" no-healthy-typed:") + (p ? "PASS" : "FAIL");
      ok = ok && p;
    }
    std::printf("  expect:%s\n", verdicts.empty() ? " (none)"
                                                  : verdicts.c_str());
    all_ok = all_ok && ok;

    all_stats.merge(tracked.fr.stats);

    char row[1024];
    std::snprintf(
        row, sizeof row,
        "    {\"name\": \"%s\", \"devices\": %d, \"requests\": %d,\n"
        "     \"healthy_completed\": %lld,\n"
        "     \"tracker\": {\"completed\": %lld, \"goodput_pct\": %d, "
        "\"failed\": %lld, \"redispatched\": %lld, \"retry_exhausted\": "
        "%lld, \"no_healthy_device\": %lld, \"quarantines\": %lld, "
        "\"readmits\": %lld, \"wall_ms\": %.1f},\n"
        "     \"no_tracker\": {\"completed\": %lld, \"goodput_pct\": %d, "
        "\"failed\": %lld, \"wall_ms\": %.1f},\n"
        "     \"pass\": %s}",
        s.name, s.devices, s.requests, static_cast<long long>(base),
        static_cast<long long>(done_t), pct_t,
        static_cast<long long>(tracked.fr.failed),
        static_cast<long long>(tracked.fr.redispatched),
        static_cast<long long>(tracked.fr.retry_exhausted),
        static_cast<long long>(tracked.fr.no_healthy_device),
        static_cast<long long>(quarantines),
        static_cast<long long>(readmits), tracked.wall_ms,
        static_cast<long long>(done_n), pct_n,
        static_cast<long long>(naive.fr.failed), naive.wall_ms,
        ok ? "true" : "false");
    if (!bench_rows.empty()) bench_rows += ",\n";
    bench_rows += row;
  }

  std::printf("chaos: %s\n", all_ok ? "all scenarios matched expectations"
                                    : "EXPECTATION FAILURES (see above)");
  std::fprintf(stderr, "chaos: %zu scenarios x 3 arms, %.1f ms wall\n",
               selected, wall_total);

  if (dump_observability(all_stats, &tracer, a) != 0) return 1;
  if (!a.bench_out.empty()) {
    std::ofstream f(a.bench_out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", a.bench_out.c_str());
      return 1;
    }
    f << "{\n  \"schema\": \"rtrsim-chaos-bench-v1\",\n  \"seed\": "
      << a.fault_seed << ",\n  \"smoke\": " << (a.smoke ? "true" : "false")
      << ",\n  \"scenarios\": [\n"
      << bench_rows << "\n  ]\n}\n";
    if (!f) return 1;
  }
  return all_ok ? 0 : 1;
}

template <typename Platform>
int resources() {
  Platform p;
  report::Table t{"Resource usage", {"Module", "Slices", "BRAMs"}};
  for (const auto& row : p.resource_table()) {
    t.row({row.module, report::fmt_int(row.res.slices),
           report::fmt_int(row.res.bram_blocks)});
  }
  t.print();
  std::printf("%s", p.topology().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();

  if (a.command == "topology") {
    if (a.dual) {
      std::printf("%s", Platform64Dual{}.topology().c_str());
    } else if (a.system == 32) {
      std::printf("%s", Platform32{}.topology().c_str());
    } else {
      std::printf("%s", Platform64{}.topology().c_str());
    }
    return 0;
  }
  if (a.command == "resources") {
    return a.system == 32 ? resources<Platform32>() : resources<Platform64>();
  }
  if (a.command == "reconfig") {
    trace::Tracer tracer;
    tracer.enable(!a.trace_out.empty());
    PlatformOptions opts;
    opts.tracer = &tracer;
    if (!build_fault_plan(a, &opts.fault_plan)) return 2;
    if (a.system == 32) {
      Platform32 p{opts};
      apply_log_level(p.sim(), a);
      const auto s = p.load_module(behavior_of(a.task));
      std::printf("%s: %s (%lld words)\n", a.task.c_str(),
                  s.ok ? s.duration().to_string().c_str() : s.error.c_str(),
                  static_cast<long long>(s.stream_words));
      if (!a.fault_specs.empty()) print_fault_summary(p.faults());
      const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
      return s.ok ? dump_rc : 1;
    }
    Platform64 p{opts};
    apply_log_level(p.sim(), a);
    const auto s = a.dma ? p.load_module_dma(behavior_of(a.task))
                         : p.load_module(behavior_of(a.task));
    std::printf("%s%s: %s (%lld words)\n", a.task.c_str(),
                a.dma ? " [dma]" : "",
                s.ok ? s.duration().to_string().c_str() : s.error.c_str(),
                static_cast<long long>(s.stream_words));
    if (!a.fault_specs.empty()) print_fault_summary(p.faults());
    const int dump_rc = dump_observability(p.sim().stats(), &tracer, a);
    return s.ok ? dump_rc : 1;
  }
  if (a.command == "run") {
    return a.system == 32 ? run_task<Platform32>(a) : run_task<Platform64>(a);
  }
  if (a.command == "sweep") {
    return sweep(a);
  }
  if (a.command == "faults") {
    return faults_cmd(a);
  }
  if (a.command == "serve") {
    return serve_cmd(a);
  }
  if (a.command == "fleet") {
    return fleet_cmd(a);
  }
  if (a.command == "chaos") {
    return chaos_cmd(a);
  }
  std::fprintf(stderr, "rtrsim_cli: unknown command '%s'\n",
               a.command.c_str());
  return usage();
}
