#include "serve/fleet/health.hpp"

namespace rtr::serve::fleet {

const char* device_state_name(DeviceState s) {
  switch (s) {
    case DeviceState::kHealthy: return "healthy";
    case DeviceState::kSuspect: return "suspect";
    case DeviceState::kQuarantined: return "quarantined";
    case DeviceState::kDraining: return "draining";
    case DeviceState::kProbation: return "probation";
  }
  return "?";
}

HealthTracker::HealthTracker(const HealthPolicy& policy, int devices)
    : policy_(policy), dev_(static_cast<std::size_t>(devices)) {}

void HealthTracker::observe(int device, const HealthSignals& s) {
  HealthSignals& p = dev_[static_cast<std::size_t>(device)].pending;
  p.fail_stops += s.fail_stops;
  p.giveups += s.giveups;
  p.watchdogs += s.watchdogs;
  p.breaker_opens += s.breaker_opens;
  p.detections += s.detections;
  p.slo_breaches += s.slo_breaches;
}

void HealthTracker::tick(int epoch, std::int64_t at_ps, FleetRouter& router,
                         const std::function<bool(int)>& probe,
                         std::vector<HealthEvent>* events) {
  constexpr int kScoreCap = 1 << 20;  // decay-by-half always terminates
  for (int d = 0; d < static_cast<int>(dev_.size()); ++d) {
    Device& dv = dev_[static_cast<std::size_t>(d)];
    const HealthSignals sig = dv.pending;
    dv.pending = HealthSignals{};

    // EWMA-style integer fold: halve the old score, add this epoch's
    // weighted evidence, saturate.
    std::int64_t s = dv.score / 2;
    s += static_cast<std::int64_t>(sig.fail_stops) * policy_.w_fail_stop;
    s += static_cast<std::int64_t>(sig.giveups) * policy_.w_giveup;
    s += static_cast<std::int64_t>(sig.watchdogs) * policy_.w_watchdog;
    s += static_cast<std::int64_t>(sig.breaker_opens) * policy_.w_breaker_open;
    s += static_cast<std::int64_t>(sig.detections) * policy_.w_detected;
    s += static_cast<std::int64_t>(sig.slo_breaches) * policy_.w_slo_breach;
    dv.score = static_cast<int>(s < kScoreCap ? s : kScoreCap);

    const DeviceState from = dv.state;
    switch (dv.state) {
      case DeviceState::kHealthy:
      case DeviceState::kSuspect: {
        if (dv.score >= policy_.quarantine_threshold) {
          // Soft evidence never takes out the last available device --
          // degraded service beats no service. Hard fail-stop evidence
          // does: the device is refusing work anyway.
          int others = 0;
          for (int o = 0; o < static_cast<int>(dev_.size()); ++o) {
            if (o != d && router.available(o)) ++others;
          }
          if (sig.fail_stops > 0 || others > 0) {
            dv.state = DeviceState::kQuarantined;
            router.set_available(d, false);
            router.set_weight_penalty(d, 0);
            break;
          }
        }
        dv.state = dv.score >= policy_.suspect_threshold
                       ? DeviceState::kSuspect
                       : DeviceState::kHealthy;
        break;
      }
      case DeviceState::kQuarantined:
        // The epoch after quarantine: this device's failed requests have
        // been re-routed to survivors -- the drain is done.
        dv.state = DeviceState::kDraining;
        break;
      case DeviceState::kDraining:
        if (dv.score < policy_.suspect_threshold) {
          // Probation gate: readback-verify-then-scrub every resident
          // area. A device that cannot even verify stays out (score reset
          // so it re-earns the gate after more decay).
          if (probe && probe(d)) {
            dv.state = DeviceState::kProbation;
            dv.clean_epochs = 0;
            router.set_available(d, true);
            router.set_weight_penalty(
                d, static_cast<std::size_t>(policy_.probation_penalty));
          } else {
            dv.score = policy_.quarantine_threshold;
          }
        }
        break;
      case DeviceState::kProbation:
        if (sig.any()) {
          // Still sick: back out of rotation.
          dv.state = DeviceState::kQuarantined;
          router.set_available(d, false);
          router.set_weight_penalty(d, 0);
        } else if (++dv.clean_epochs >= policy_.probation_epochs) {
          dv.state = DeviceState::kHealthy;
          router.set_weight_penalty(d, 0);
        }
        break;
    }
    if (dv.state != from && events != nullptr) {
      events->push_back({epoch, d, from, dv.state, dv.score, at_ps});
    }
  }
}

}  // namespace rtr::serve::fleet
