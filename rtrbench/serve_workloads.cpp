// swap-thrash and resident-batched: one 64-bit device driven through the
// public serving API (TaskServer::submit, serve_one, serve_batch), with the
// benchmark as the load generator.
#include <map>
#include <memory>
#include <queue>

#include "replay.hpp"
#include "serve/server.hpp"

namespace rtrbench {
namespace {

using rtr::Platform64;
using rtr::hw::BehaviorId;
namespace sv = rtr::serve;


std::vector<int> behaviours_of(const std::vector<MixEntry>& mix) {
  std::vector<int> out;
  for (const MixEntry& m : mix) out.push_back(m.behavior);
  return out;
}

/// A device and its server, built in the untimed set-up.
struct Device {
  Device(int areas, std::size_t queue, sv::ServeOptions so,
                  std::uint64_t seed)
      : p(options(areas)), srv(p, queue, so, seed) {}
  static rtr::PlatformOptions options(int areas) {
    rtr::PlatformOptions po;
    po.dynamic_areas = areas;
    return po;
  }
  Platform64 p;
  sv::TaskServer<Platform64> srv;
};

/// Compiles the complete plan of every behaviour in the mix, so the timed
/// phase starts with the plan cache filled.
void warm(Device& d, const std::vector<MixEntry>& mix) {
  for (const MixEntry& m : mix) (void)d.srv.manager().warm(m.behavior, 64);
}

void record(const std::vector<sv::Completion>& batch,
            std::vector<BatchRecord>* out) {
  BatchRecord b;
  b.behavior = batch.front().req.behavior;
  for (const sv::Completion& c : batch) {
    if (c.outcome == sv::Outcome::kHw) b.ids.push_back(c.req.id);
  }
  if (!b.ids.empty()) out->push_back(std::move(b));
}

/// Output checks and simulated figures of a finished serve round; with
/// `traced`, also the replay and the host figures.
void finish(std::unique_ptr<Device>& d,
            const std::vector<sv::Request>& submitted,
            const std::vector<BatchRecord>& batches,
            const std::vector<MixEntry>& mix, std::uint64_t seed, int areas,
            bool traced, Round* r) {
  const sv::ServeReport& rep = d->srv.report();

  // Conservation: every submitted request is disposed of exactly once.
  std::map<std::int64_t, int> seen;
  for (const sv::Completion& c : rep.completions) ++seen[c.req.id];
  std::int64_t missing = 0;
  for (const sv::Request& q : submitted) {
    const auto it = seen.find(q.id);
    if (it == seen.end()) {
      ++missing;
    } else if (it->second != 1) {
      r->errors.push_back("request " + std::to_string(q.id) + " disposed of " +
                          std::to_string(it->second) + " times");
    }
  }
  if (seen.size() + static_cast<std::size_t>(missing) != submitted.size()) {
    r->errors.push_back("completions carry ids that were never submitted");
  }
  std::int64_t hw = 0, sw = 0, shed = 0, expired = 0, failed = 0, late = 0;
  std::vector<sv::Completion> served;
  std::vector<double> latency_ms, wait_ms;
  std::int64_t first_ps = -1, last_ps = 0;
  for (const sv::Completion& c : rep.completions) {
    switch (c.outcome) {
      case sv::Outcome::kHw: ++hw; break;
      case sv::Outcome::kSw: ++sw; break;
      case sv::Outcome::kShed: ++shed; break;
      case sv::Outcome::kExpired: ++expired; break;
      case sv::Outcome::kFailed: ++failed; break;
    }
    if (c.outcome != sv::Outcome::kHw && c.outcome != sv::Outcome::kSw) {
      continue;
    }
    if (!c.deadline_met) ++late;
    served.push_back(c);
    latency_ms.push_back(
        static_cast<double>((c.finished - c.req.submitted).ps()) / kMs);
    wait_ms.push_back(
        static_cast<double>((c.started - c.req.submitted).ps()) / kMs);
    if (first_ps < 0 || c.req.submitted.ps() < first_ps) {
      first_ps = c.req.submitted.ps();
    }
    last_ps = std::max(last_ps, c.finished.ps());
  }
  if (hw != rep.served_hw || sw != rep.degraded || shed != rep.shed ||
      expired != rep.expired || failed != rep.failed ||
      missing != rep.unservable ||
      rep.submitted != static_cast<std::int64_t>(submitted.size()) ||
      hw + sw + shed + expired + failed + missing != rep.submitted) {
    r->errors.push_back("served + shed + expired + failed != submitted");
  }
  r->attempted = static_cast<std::int64_t>(submitted.size());
  r->failed = shed + expired + failed + missing + late;

  sim_latency_figures(latency_ms, last_ps - first_ps, r);
  r->sim["serve.queue_wait_p99_ms"] = percentile(wait_ms, 99);
  r->sim["serve.coalesced"] = static_cast<double>(rep.coalesced);
  check_digests(served, seed, r);
  const rtr::sim::StatRegistry& stats = d->p.sim().stats();
  check_icap_bound(stats, icap_ps_per_byte(64), "64-bit device", r);
  layer_counts(stats, r);

  if (!traced) return;
  time_routing(submitted, seed, r->clocks.route);
  {
    rtr::sim::StatRegistry merged;
    Span s(&r->clocks.merge);
    merged.merge(stats);
  }
  // Free the workload's device first, so the replay's host times are not
  // taken with two platforms competing for the host caches.
  d.reset();
  ReplayTotals tot;
  replay<Platform64>(areas, seed, behaviours_of(mix), batches, r->clocks, tot,
                     r);
  if (static_cast<double>(tot.swaps) != r->sim["rtr.swaps"]) {
    r->errors.push_back("the replay swapped " + std::to_string(tot.swaps) +
                        " times, the workload " +
                        std::to_string(r->sim["rtr.swaps"]));
  }
  host_figures(tot, r->attempted, r);
}

// --- swap-thrash ----------------------------------------------------------------
//
// Five behaviours compete for one dynamic area with batching off, so most
// requests swap: the reconfiguration path (rtr, icap, bus, cpu) does most
// of the work. A closed loop of 4 clients keeps at most 4 requests queued.

constexpr int kThrashClients = 4;
constexpr int kThrashPerClient = 320;
constexpr std::int64_t kThrashThinkPs = 2 * kMs;
// The stock 250 ms deadline expired requests under this load.
constexpr std::int64_t kThrashDeadlinePs = 1000 * kMs;
constexpr std::size_t kThrashQueue = 16;

const std::vector<MixEntry>& thrash_mix() {
  static const std::vector<MixEntry> kMix = {{rtr::hw::kJenkinsHash, 5},
                                             {rtr::hw::kBrightness, 3},
                                             {rtr::hw::kBlendAdd, 3},
                                             {rtr::hw::kFade, 2},
                                             {rtr::hw::kPatternMatcher, 2}};
  return kMix;
}

Round run_swap_thrash(std::uint64_t seed, bool traced, int /*jobs*/) {
  Round r;
  LayerClock* clock = traced ? &r.clocks.serve : nullptr;
  const HostClock::time_point t0 = HostClock::now();

  auto d = std::make_unique<Device>(1, kThrashQueue, sv::ServeOptions{}, seed);
  // Each client's think times, behaviours and priorities, drawn up front.
  struct Step {
    std::int64_t think_ps;
    BehaviorId behavior;
    sv::Priority priority;
  };
  rtr::sim::Rng rng{seed};
  std::vector<std::vector<Step>> script(kThrashClients);
  for (std::vector<Step>& steps : script) {
    for (int k = 0; k < kThrashPerClient; ++k) {
      const std::int64_t think = draw_gap(rng, kThrashThinkPs);
      const BehaviorId b = draw_behavior(rng, thrash_mix());
      steps.push_back({think, b, draw_priority(rng)});
    }
  }
  warm(*d, thrash_mix());
  const HostClock::time_point t1 = HostClock::now();

  struct Due {
    std::int64_t at_ps;
    int client;
    bool operator>(const Due& o) const {
      return at_ps != o.at_ps ? at_ps > o.at_ps : client > o.client;
    }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  std::vector<std::size_t> next(kThrashClients, 0);
  for (int cl = 0; cl < kThrashClients; ++cl) {
    due.push({script[static_cast<std::size_t>(cl)][0].think_ps, cl});
  }
  const auto dispose = [&](int client, std::int64_t at_ps) {
    const auto c = static_cast<std::size_t>(client);
    if (next[c] < script[c].size()) {
      due.push({at_ps + script[c][next[c]].think_ps, client});
    }
  };
  std::vector<sv::Request> submitted;
  submitted.reserve(kThrashClients * kThrashPerClient);
  std::vector<BatchRecord> batches;
  Platform64& p = d->p;
  while (!due.empty() || d->srv.pending()) {
    if (!d->srv.pending() && due.top().at_ps > p.kernel().now().ps()) {
      p.cpu().idle_until(rtr::sim::SimTime::from_ps(due.top().at_ps));
    }
    while (!due.empty() && due.top().at_ps <= p.kernel().now().ps()) {
      const Due e = due.top();
      due.pop();
      const auto c = static_cast<std::size_t>(e.client);
      const Step& s = script[c][next[c]++];
      sv::Request q;
      q.id = static_cast<std::int64_t>(submitted.size()) + 1;
      q.client = e.client;
      q.behavior = s.behavior;
      q.priority = s.priority;
      q.submitted = rtr::sim::SimTime::from_ps(e.at_ps);
      q.deadline = rtr::sim::SimTime::from_ps(e.at_ps + kThrashDeadlinePs);
      submitted.push_back(q);
      sv::AdmitError err;
      {
        Span sp(clock);
        err = d->srv.submit(q);
      }
      if (err != sv::AdmitError::kNone) dispose(e.client, p.kernel().now().ps());
    }
    if (d->srv.pending()) {
      sv::Completion c;
      {
        Span sp(clock);
        c = d->srv.serve_one();
      }
      record({c}, &batches);
      dispose(c.req.client, c.finished.ps());
    }
  }
  const HostClock::time_point t2 = HostClock::now();
  r.setup_s = seconds_between(t0, t1);
  r.timed_s = seconds_between(t1, t2);
  finish(d, submitted, batches, thrash_mix(), seed, 1, traced, &r);
  return r;
}

// --- resident-batched -------------------------------------------------------------
//
// Two behaviours on a two-area device with batching on: the working set
// equals the area count, so the run makes two loads and host time goes to
// execution, DMA chains and batch extraction. A reconfiguration-path change
// predicts no movement here. Open loop: trains of 8 back-to-back arrivals.

constexpr int kBatchedRequests = 8192;
constexpr int kTrain = 8;
constexpr std::int64_t kBatchedGapPs = kMs / 2;  // mean gap per arrival
constexpr std::int64_t kBatchedDeadlinePs = 250 * kMs;
// Deep enough that nothing is shed; a 64-deep queue shed requests.
constexpr std::size_t kBatchedQueue = 512;
constexpr int kMaxBatch = 8;
constexpr std::int64_t kBatchSlackPs = 20 * kMs;

const std::vector<MixEntry>& batched_mix() {
  // jenkins runs over programmed I/O, blend over a scatter-gather DMA chain.
  static const std::vector<MixEntry> kMix = {{rtr::hw::kJenkinsHash, 1},
                                             {rtr::hw::kBlendAdd, 1}};
  return kMix;
}

Round run_resident_batched(std::uint64_t seed, bool traced, int /*jobs*/) {
  Round r;
  LayerClock* clock = traced ? &r.clocks.serve : nullptr;
  const HostClock::time_point t0 = HostClock::now();

  sv::ServeOptions so;
  so.batch.max_batch = kMaxBatch;
  so.batch.slack_ps = kBatchSlackPs;
  auto d = std::make_unique<Device>(2, kBatchedQueue, so, seed);
  rtr::sim::Rng rng{seed};
  std::vector<sv::Request> stream;
  stream.reserve(kBatchedRequests);
  std::int64_t at_ps = 0;
  for (int i = 0; i < kBatchedRequests; ++i) {
    if (i % kTrain == 0) at_ps += draw_gap(rng, kBatchedGapPs * kTrain);
    sv::Request q;
    q.id = i + 1;
    q.behavior = draw_behavior(rng, batched_mix());
    q.priority = draw_priority(rng);
    q.submitted = rtr::sim::SimTime::from_ps(at_ps);
    q.deadline = rtr::sim::SimTime::from_ps(at_ps + kBatchedDeadlinePs);
    stream.push_back(q);
  }
  warm(*d, batched_mix());
  // Make the working set resident before the clock starts, and start the
  // arrivals there: the timed phase is the resident regime the workload is
  // named for, not the cold start of its two loads.
  for (const MixEntry& m : batched_mix()) {
    (void)d->srv.manager().ensure(m.behavior, 64);
  }
  const rtr::sim::SimTime ready = d->p.kernel().now();
  for (sv::Request& q : stream) {
    q.submitted = q.submitted + ready;
    q.deadline = q.deadline + ready;
  }
  const HostClock::time_point t1 = HostClock::now();

  std::vector<BatchRecord> batches;
  Platform64& p = d->p;
  std::size_t next = 0;
  while (next < stream.size() || d->srv.pending()) {
    if (!d->srv.pending() && stream[next].submitted > p.kernel().now()) {
      p.cpu().idle_until(stream[next].submitted);
    }
    while (next < stream.size() &&
           stream[next].submitted <= p.kernel().now()) {
      Span sp(clock);
      (void)d->srv.submit(stream[next++]);
    }
    if (d->srv.pending()) {
      std::vector<sv::Completion> batch;
      {
        Span sp(clock);
        batch = d->srv.serve_batch();
      }
      record(batch, &batches);
    }
  }
  const HostClock::time_point t2 = HostClock::now();
  r.setup_s = seconds_between(t0, t1);
  r.timed_s = seconds_between(t1, t2);
  finish(d, stream, batches, batched_mix(), seed, 2, traced, &r);
  return r;
}

}  // namespace

Round run_fleet_failover(std::uint64_t seed, bool traced, int jobs);

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"swap-thrash", run_swap_thrash, 1, 6},
      {"resident-batched", run_resident_batched, 1, 6},
      {"fleet-failover", run_fleet_failover, 2, 8},
  };
  return kAll;
}

}  // namespace rtrbench
