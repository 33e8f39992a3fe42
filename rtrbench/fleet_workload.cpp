// fleet-failover: run_fleet over four devices with the health tracker on,
// while device 2 fail-stops and is later repaired. run_fleet takes no ready
// stream, so the benchmark passes it the seed and checks, after the run,
// that the stream the fleet served is the one the benchmark draws itself.
#include <algorithm>
#include <map>

#include "replay.hpp"
#include "serve/fleet/fleet.hpp"

namespace rtrbench {
namespace {

namespace sv = rtr::serve;
namespace fl = rtr::serve::fleet;
using rtr::hw::BehaviorId;

constexpr int kRequests = 2400;
// Load near the fleet's batched capacity, so most requests queue and the
// latency percentiles are not pinned to a few per-task execution times.
constexpr std::int64_t kGapPs = kMs;
constexpr std::int64_t kDeadlinePs = 250 * kMs;
constexpr int kMaxBatch = 8;
constexpr std::int64_t kBatchSlackPs = 20 * kMs;
constexpr const char* kFault = "fail_stop:stuck@25:0:2";
constexpr int kRepairEpoch = 5;

/// The arrival stream, drawn from the seed: gaps uniform on [0, 2 x 1 ms],
/// behaviours Zipf-popular (weight 720 / rank) over the fleet's six,
/// priorities 10/80/10.
std::vector<sv::Request> draw_stream(std::uint64_t seed) {
  static const std::vector<MixEntry> kZipf = {
      {rtr::hw::kJenkinsHash, 720}, {rtr::hw::kBrightness, 360},
      {rtr::hw::kBlendAdd, 240},    {rtr::hw::kFade, 180},
      {rtr::hw::kPatternMatcher, 144}, {rtr::hw::kSha1, 120}};
  rtr::sim::Rng rng{seed};
  std::vector<sv::Request> stream;
  stream.reserve(kRequests);
  std::int64_t at_ps = 0;
  for (int i = 0; i < kRequests; ++i) {
    at_ps += draw_gap(rng, kGapPs);
    sv::Request q;
    q.id = i + 1;
    q.behavior = draw_behavior(rng, kZipf);
    q.priority = draw_priority(rng);
    q.submitted = rtr::sim::SimTime::from_ps(at_ps);
    q.deadline = rtr::sim::SimTime::from_ps(at_ps + kDeadlinePs);
    stream.push_back(q);
  }
  return stream;
}

bool same_request(const sv::Request& a, const sv::Request& b) {
  return a.id == b.id && a.behavior == b.behavior &&
         a.priority == b.priority && a.submitted == b.submitted &&
         a.deadline == b.deadline;
}

/// The fleet's merged counters and report fields equal the sums over its
/// shards.
void check_sums(const fl::FleetReport& fr, Round* r) {
  std::map<std::string, std::int64_t> sums;
  std::int64_t hw = 0, sw = 0, shed = 0, expired = 0, failed = 0, swaps = 0;
  for (const fl::ShardOutcome& s : fr.shards) {
    for (const auto& [name, c] : s.stats.counters()) sums[name] += c.value();
    hw += s.report.served_hw;
    sw += s.report.degraded;
    shed += s.report.shed;
    expired += s.report.expired;
    failed += s.report.failed;
    swaps += s.swaps;
  }
  for (const auto& [name, sum] : sums) {
    const auto it = fr.stats.counters().find(name);
    const std::int64_t merged =
        it == fr.stats.counters().end() ? 0 : it->second.value();
    if (merged != sum) {
      r->errors.push_back("fleet counter " + name + " is " +
                          std::to_string(merged) + ", its shards sum to " +
                          std::to_string(sum));
    }
  }
  if (fr.served_hw != hw || fr.degraded != sw || fr.shed != shed ||
      fr.expired != expired || fr.failed != failed || fr.swaps != swaps) {
    r->errors.push_back("fleet report fields differ from their shard sums");
  }
}

}  // namespace

Round run_fleet_failover(std::uint64_t seed, bool traced, int jobs) {
  Round r;
  const HostClock::time_point t0 = HostClock::now();
  fl::FleetOptions fo;
  fo.devices = static_cast<int>(fleet_systems().size());
  fo.mix = {64, 32};
  fo.areas = 2;
  fo.steal_threshold = kFleetStealThreshold;
  fo.jobs = jobs;
  fo.seed = seed;
  fo.health.enabled = true;
  fo.batch.max_batch = kMaxBatch;
  fo.batch.slack_ps = kBatchSlackPs;
  rtr::fault::FaultSpec spec;
  if (!rtr::fault::FaultSpec::parse(kFault, &spec)) {
    r.errors.push_back(std::string("fault spec does not parse: ") + kFault);
    return r;
  }
  fo.fault_plan.add(spec);
  fo.repair_at_epoch = kRepairEpoch;
  fl::FleetWorkloadSpec fw;
  fw.requests = kRequests;
  fw.mean_gap_ps = kGapPs;
  fw.rel_deadline_ps = kDeadlinePs;
  fw.zipf_skew = 1;
  const std::vector<sv::Request> stream = draw_stream(seed);
  const HostClock::time_point t1 = HostClock::now();
  fl::FleetReport fr;
  {
    Span s(traced ? &r.clocks.serve : nullptr);
    fr = fl::run_fleet(fo, fw);
  }
  const HostClock::time_point t2 = HostClock::now();
  r.setup_s = seconds_between(t0, t1);
  r.timed_s = seconds_between(t1, t2);

  const std::vector<sv::Request> theirs = fl::make_fleet_stream(fw, seed);
  if (theirs.size() != stream.size() ||
      !std::equal(stream.begin(), stream.end(), theirs.begin(),
                  same_request)) {
    r.errors.push_back("the fleet's arrival stream differs from the drawn one");
  }

  // Conservation after re-dispatch: per request, the completions form a
  // chain of device failures, one per re-dispatch, ending in one final
  // disposition; a request with no completion was refused for want of a
  // healthy device.
  std::vector<std::vector<const sv::Completion*>> chain(stream.size());
  std::int64_t completions = 0;
  for (const fl::ShardOutcome& s : fr.shards) {
    for (const sv::Completion& c : s.report.completions) {
      ++completions;
      if (c.req.id < 1 || c.req.id > static_cast<std::int64_t>(stream.size())) {
        r.errors.push_back("a shard completed unknown request " +
                           std::to_string(c.req.id));
        continue;
      }
      chain[static_cast<std::size_t>(c.req.id - 1)].push_back(&c);
    }
  }
  std::int64_t served_n = 0, shed = 0, expired = 0, failed = 0, missing = 0,
               late = 0, superseded = 0;
  std::vector<sv::Completion> served;
  std::vector<double> latency_ms, wait_ms;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    auto& links = chain[i];
    if (links.empty()) {
      ++missing;
      continue;
    }
    std::sort(links.begin(), links.end(), [](const auto* a, const auto* b) {
      return a->req.redispatches < b->req.redispatches;
    });
    for (std::size_t k = 0; k < links.size(); ++k) {
      const sv::Completion& c = *links[k];
      if (c.req.redispatches != static_cast<int>(k)) {
        r.errors.push_back("request " + std::to_string(i + 1) +
                           " has a gap or a repeat in its re-dispatch chain");
      }
      if (k + 1 < links.size()) {
        ++superseded;
        if (c.outcome != sv::Outcome::kFailed ||
            !(c.fail_stop || c.hw_giveup || c.watchdog)) {
          r.errors.push_back("request " + std::to_string(i + 1) +
                             " was re-dispatched after a non-device outcome");
        }
      }
    }
    const sv::Completion& c = *links.back();
    switch (c.outcome) {
      case sv::Outcome::kHw:
      case sv::Outcome::kSw: {
        ++served_n;
        if (!c.deadline_met) ++late;
        served.push_back(c);
        latency_ms.push_back(
            static_cast<double>((c.finished - stream[i].submitted).ps()) /
            kMs);
        wait_ms.push_back(
            static_cast<double>((c.started - c.req.submitted).ps()) / kMs);
        break;
      }
      case sv::Outcome::kShed: ++shed; break;
      case sv::Outcome::kExpired: ++expired; break;
      case sv::Outcome::kFailed: ++failed; break;
    }
  }
  if (served_n + shed + expired + failed + missing !=
          static_cast<std::int64_t>(stream.size()) ||
      superseded != fr.redispatched ||
      completions != static_cast<std::int64_t>(stream.size()) - missing +
                         superseded ||
      missing > fr.no_healthy_device || fr.requests != kRequests) {
    r.errors.push_back(
        "fleet conservation: served + shed + expired + failed + refused != "
        "requests after re-dispatch");
  }
  check_sums(fr, &r);
  r.attempted = static_cast<std::int64_t>(stream.size());
  r.failed = shed + expired + failed + missing + late;

  std::int64_t end_min = -1, end_max = 0;
  for (std::size_t i = 0; i < fr.shards.size(); ++i) {
    const fl::ShardOutcome& s = fr.shards[i];
    check_icap_bound(s.stats, icap_ps_per_byte(s.system),
                     "shard " + std::to_string(i), &r);
    end_max = std::max(end_max, s.final_ps);
    end_min = end_min < 0 ? s.final_ps : std::min(end_min, s.final_ps);
  }
  sim_latency_figures(latency_ms, end_max - stream.front().submitted.ps(), &r);
  check_digests(served, seed, &r);
  layer_counts(fr.stats, &r);
  std::int64_t coalesced = 0;
  for (const fl::ShardOutcome& s : fr.shards) coalesced += s.report.coalesced;
  std::int64_t quarantines = 0, readmits = 0;
  for (const fl::HealthEvent& e : fr.health_events) {
    if (e.to == fl::DeviceState::kQuarantined) ++quarantines;
    if (e.from == fl::DeviceState::kProbation &&
        e.to == fl::DeviceState::kHealthy) {
      ++readmits;
    }
  }
  auto& m = r.sim;
  m["serve.queue_wait_p99_ms"] = percentile(wait_ms, 99);
  m["serve.coalesced"] = static_cast<double>(coalesced);
  m["fleet.swaps"] = static_cast<double>(fr.swaps);
  m["fleet.affinity_hits"] = static_cast<double>(fr.route.affinity_hits);
  m["fleet.steals"] = static_cast<double>(fr.route.steals);
  m["fleet.redispatched"] = static_cast<double>(fr.redispatched);
  m["fleet.quarantines"] = static_cast<double>(quarantines);
  m["fleet.readmits"] = static_cast<double>(readmits);
  m["fleet.shard_end_spread_ms"] =
      static_cast<double>(end_max - end_min) / kMs;

  if (!traced) return r;
  // Replay every shard's served sequence on a fresh device of its system.
  ReplayTotals tot;
  for (std::size_t i = 0; i < fr.shards.size(); ++i) {
    const fl::ShardOutcome& s = fr.shards[i];
    std::vector<BatchRecord> batches;
    for (const sv::Completion& c : s.report.completions) {
      if (c.outcome == sv::Outcome::kHw) {
        batches.push_back({c.req.behavior, {c.req.id}});
      }
    }
    std::vector<int> hosted;
    for (const BehaviorId b : fl::fleet_behaviors()) {
      if (fl::shard_can_host(s.system, b)) hosted.push_back(b);
    }
    if (s.system == 64) {
      replay<rtr::Platform64>(fleet_areas()[i], seed, hosted, batches,
                              r.clocks, tot, &r);
    } else {
      replay<rtr::Platform32>(fleet_areas()[i], seed, hosted, batches,
                              r.clocks, tot, &r);
    }
  }
  time_routing(stream, seed, r.clocks.route);
  rtr::sim::StatRegistry merged;
  {
    Span s(&r.clocks.merge);
    for (const fl::ShardOutcome& sh : fr.shards) merged.merge(sh.stats);
  }
  host_figures(tot, r.attempted, &r);
  return r;
}

}  // namespace rtrbench
