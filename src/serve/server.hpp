// TaskServer: deterministic request serving on top of the module manager.
//
// One server drives one platform (single-threaded, like the embedded system
// it models). Per request the server:
//
//   1. drops it if its deadline already passed while queued (kExpired);
//   2. consults the behaviour's circuit breaker; if the hardware path is
//      allowed, arms the platform's load-deadline watchdog and asks the
//      ModuleManager to make the module resident;
//   3. on success runs the hardware driver (kHw); on failure records the
//      breaker failure and degrades the request to the matching software
//      kernel (kSw), bit-identical by construction;
//   4. records the outcome on the SERVE trace track and serve.* stats.
//
// The breaker is the piece the manager lacks: the manager recovers one
// load at a time, the breaker remembers *across* requests that a module
// type keeps failing and stops burning reconfiguration time on it until a
// cooldown has passed. A successful half-open probe closes the breaker and
// also lifts the manager's diff->complete degradation, restoring full
// hardware service. See docs/SERVING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/sw_kernels.hpp"
#include "rtr/manager.hpp"
#include "serve/batch_exec.hpp"
#include "serve/breaker.hpp"
#include "serve/exec.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
#include "serve/workload.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"
#include "trace/flight_recorder.hpp"

namespace rtr::serve {

struct ServeOptions {
  RecoveryPolicy recovery;
  BreakerPolicy breaker;
  /// Watchdog budget for one hardware attempt (module swap): the load
  /// deadline is armed at now + min(budget, time to request deadline).
  /// The default is ~2x the slowest clean reconfiguration (a complete
  /// Platform64 PIO load is ~27 ms), so healthy loads always pass while a
  /// stuck load's retry ladder is cut off mid-stream.
  sim::SimTime hw_attempt_budget = sim::SimTime::from_ms(60);
  /// Memoize reconfiguration plans (and prefetch them for the next queued
  /// distinct behaviour). Host-side only: simulated times and outputs are
  /// byte-identical with the cache off (see docs/PERFORMANCE.md).
  bool plan_cache = true;
  /// Multi-area affinity dispatch (docs/PLACEMENT.md): on a device with
  /// more than one dynamic area, pop the oldest queued request whose
  /// behaviour is already resident in some area. A queued request may be
  /// passed over -- by this path or by batch extraction -- at most this
  /// many times before aging makes it exempt from further bypassing
  /// (RequestQueue's shared starvation guard). Single-area devices pop
  /// strict (priority, FIFO) order unless batching coalesces.
  int affinity_max_bypass = 16;
  /// Swap-aware batching (docs/SERVING.md "Batching"): serve_batch pops up
  /// to batch.max_batch same-behaviour requests per residency, jumping
  /// only requests with at least batch.slack_ps of deadline headroom, and
  /// streams image batches as one multi-buffer scatter-gather chain.
  /// Default max_batch = 1: batching off, serve_batch == serve_one.
  BatchPolicy batch;
  /// Declared service-level objectives, one SloEngine each, evaluated per
  /// disposed request (see serve/slo.hpp for grammar and burn semantics).
  std::vector<SloSpec> slos;
};

/// Aggregate disposition counts of one serve run (mirrors the serve.*
/// counters, collected per-run for reports and tests).
struct ServeReport {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;       // queue full at admission
  std::int64_t unservable = 0; // no hw driver and no sw kernel
  std::int64_t expired = 0;    // deadline passed while queued
  std::int64_t served_hw = 0;
  std::int64_t degraded = 0;   // served by the software kernel
  std::int64_t failed = 0;
  std::int64_t deadline_miss = 0;    // served, but past the deadline
  std::int64_t watchdog_aborts = 0;  // loads killed by the load deadline
  std::int64_t fail_stops = 0;       // dispatches refused: device fail-stop
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t breaker_closes = 0;
  std::int64_t slo_breaches = 0;  // edge-triggered burn-rate alerts
  std::int64_t batches = 0;    // serve_batch invocations (incl. singletons)
  std::int64_t coalesced = 0;  // members served beyond each batch's leader
  bool digests_ok = true;  // every served output matched its golden model
  std::vector<Completion> completions;
};

template <typename Platform>
class TaskServer {
 public:
  TaskServer(Platform& p, std::size_t queue_capacity, ServeOptions opts = {},
             std::uint64_t seed = 1)
      : p_(&p),
        mgr_(p, opts.recovery),
        opts_(opts),
        queue_(queue_capacity),
        seed_(seed) {
    mgr_.set_plan_cache_enabled(opts_.plan_cache);
    for (const SloSpec& s : opts_.slos) slos_.emplace_back(s);
    if (trace::FlightRecorder* fr = p.sim().flight_recorder()) {
      // Replaces any previous server's provider under the same name; the
      // recorder only snapshots during a run, while this server is alive.
      fr->add_state_provider(
          "serve", [this](std::ostream& os) { write_state(os); });
    }
  }

  [[nodiscard]] RequestQueue& queue() { return queue_; }
  [[nodiscard]] ModuleManager<Platform>& manager() { return mgr_; }
  [[nodiscard]] const ServeReport& report() const { return report_; }
  [[nodiscard]] const std::vector<SloEngine>& slos() const { return slos_; }
  [[nodiscard]] CircuitBreaker& breaker(hw::BehaviorId id) {
    auto it = breakers_.find(id);
    if (it == breakers_.end()) {
      it = breakers_.emplace(id, CircuitBreaker{opts_.breaker}).first;
    }
    return it->second;
  }

  /// Admission control: typed rejection, never an unbounded queue.
  AdmitError submit(const Request& r) {
    ++report_.submitted;
    counter("serve.submitted").add();
    if (!apps::has_sw_equivalent(r.behavior)) {
      // The serving layer requires a degradation path: a behaviour with no
      // software kernel (test circuits, unknown ids) is refused up front
      // rather than failed after burning reconfiguration time.
      ++report_.unservable;
      counter("serve.unservable").add();
      mark("reject:unservable", r.id);
      return AdmitError::kUnservable;
    }
    const AdmitError e = queue_.admit(r);
    if (e == AdmitError::kNone) {
      ++report_.admitted;
      counter("serve.admitted").add();
      trace::Tracer& tr = p_->sim().tracer();
      if (tr.enabled()) {
        // The admission slice anchors the request's flow chain: arrows in
        // the Perfetto UI run admission -> serve span -> reconfig -> exec.
        const int t = tr.track("SERVE.admission");
        tr.complete(t,
                    "admit:" + std::string(hw::task_name(r.behavior)) + ":" +
                        std::to_string(r.id),
                    now(), now(), "req", r.id);
        tr.flow(trace::Phase::kFlowStart, t, "req", r.id, now());
        tr.counter("serve.queue.depth",
                   static_cast<std::int64_t>(queue_.size()), now());
      }
    } else {
      ++report_.shed;
      counter("serve.shed").add();
      mark("shed", r.id);
      const Completion sc = make_completion(r, Outcome::kShed);
      observe_slos(sc);
      report_.completions.push_back(sc);
    }
    return e;
  }

  [[nodiscard]] bool pending() const { return !queue_.empty(); }

  /// Pop and serve the highest-priority request (on a multi-area device,
  /// the highest-priority request warm in some area, with aging; see
  /// ServeOptions::affinity_max_bypass). Advances simulated time. This is
  /// serve_members capped at one member, without batch accounting.
  Completion serve_one() { return serve_members(1).front(); }

  /// Pop and serve a slack-bounded batch of up to batch.max_batch
  /// same-behaviour requests (see serve_members). With batching disabled
  /// this is exactly {serve_one()}.
  std::vector<Completion> serve_batch() {
    return serve_members(opts_.batch.max_batch);
  }

  /// Replay an open-loop script (sorted by submission time) to drain:
  /// each request is submitted once the clock reaches its submission time,
  /// the CPU idles across gaps while the queue is empty, and batches are
  /// served in between.
  void serve_script(const std::vector<Request>& script) {
    std::size_t next = 0;
    while (next < script.size() || pending()) {
      if (!pending() && next < script.size() &&
          script[next].submitted > now()) {
        p_->cpu().idle_until(script[next].submitted);
      }
      while (next < script.size() && script[next].submitted <= now()) {
        (void)submit(script[next]);
        ++next;
      }
      if (pending()) (void)serve_batch();
    }
  }

 private:
  /// The one serving path. Pops up to `cap` same-behaviour requests: one
  /// residency (and, for 64-bit image tasks, one multi-buffer scatter-
  /// gather descriptor chain) serves every member. Expiry, fail-stop,
  /// deadline accounting, SLOs and digests are evaluated per member; the
  /// members share the breaker decision, the watchdog-armed module ensure
  /// (armed against the earliest member deadline, so no member's deadline
  /// is sacrificed) and the chain kick. A member whose output fails golden
  /// verification (a fault corrupted its beats mid-chain) is re-run on the
  /// software kernel for a bit-identical digest; the rest of the batch is
  /// unaffected. A cap above one counts as a batch (serve.batch.*, a
  /// batch:<task>:xN span, even for a singleton); a cap of one traces the
  /// request as a <task>:<id> span.
  std::vector<Completion> serve_members(int cap) {
    const bool batched = cap > 1;
    BatchPolicy pol = opts_.batch;
    pol.max_batch = cap;
    const auto resident = [this](int b) {
      return mgr_.is_resident(static_cast<hw::BehaviorId>(b));
    };
    const auto cold = [](int) { return false; };
    std::vector<Request> batch =
        p_->area_count() > 1
            ? queue_.pop_batch(resident, opts_.affinity_max_bypass, pol,
                               now())
            : queue_.pop_batch(cold, opts_.affinity_max_bypass, pol, now());
    if (batched) {
      ++report_.batches;
      report_.coalesced += static_cast<std::int64_t>(batch.size()) - 1;
      counter("serve.batch.count").add();
      if (batch.size() > 1) {
        counter("serve.batch.coalesced")
            .add(static_cast<std::int64_t>(batch.size()) - 1);
      }
      p_->sim().stats().histogram("serve.batch.size").sample(
          static_cast<std::int64_t>(batch.size()));
    }
    const hw::BehaviorId behavior = batch.front().behavior;
    trace::Tracer& tr = p_->sim().tracer();
    const int track = tr.enabled() ? tr.track("SERVE") : -1;
    if (track >= 0) {
      tr.begin(track,
               batched ? std::string("batch:") + hw::task_name(behavior) +
                             ":x" + std::to_string(batch.size())
                       : std::string(hw::task_name(behavior)) + ":" +
                             std::to_string(batch.front().id),
               now());
    }

    std::vector<Completion> out;
    out.reserve(batch.size());
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Request& req = batch[i];
      stage_sample(stages(req.behavior).queue, (now() - req.submitted).ps());
      if (track >= 0) {
        tr.flow(trace::Phase::kFlowStep, track, "req", req.id, now());
      }
      Completion c = make_completion(req, Outcome::kFailed);
      if (req.deadline.ps() > 0 && now() >= req.deadline) {
        ++report_.expired;
        counter("serve.expired").add();
        mark("expired", req.id);
        c.outcome = Outcome::kExpired;
        c.deadline_met = false;
      } else if (fault::FaultInjector* fi = p_->faults();
                 fi != nullptr && fi->on_dispatch(now()).fail_stop) {
        // Whole-device fault sites (fail_stop/brownout): one opportunity
        // per member. A fail-stopped device refuses the request outright --
        // its software kernels run on the same dead device, so there is no
        // degradation path; the fleet's health tracker is the recovery.
        ++report_.fail_stops;
        ++report_.failed;
        counter("serve.fail_stop").add();
        counter("serve.failed").add();
        mark("fail_stop", req.id);
        c.fail_stop = true;
        c.error = "device fail-stop";
      } else {
        live.push_back(i);
      }
      out.push_back(c);
    }

    if (!live.empty()) {
      const Request& leader = batch[live.front()];
      Completion& lead_c = out[live.front()];
      CircuitBreaker& br = breaker(behavior);
      const BreakerState before = br.state();
      const bool try_hw = br.allow_hw(now());
      if (try_hw && before == BreakerState::kOpen) {
        // The cooldown elapsed: this residency is the half-open probe.
        ++report_.breaker_probes;
        counter("serve.breaker_probes").add();
        mark("breaker:probe", leader.id);
      }
      // A hardware failure on member i's behalf, charged to the breaker.
      const auto hw_failed = [&](std::size_t i) {
        if (br.record_failure(now())) {
          ++report_.breaker_opens;
          counter("serve.breaker_opens").add();
          mark("breaker:open", batch[i].id);
          incident("breaker_open", batch[i].id);
          out[i].breaker_opened = true;
        }
      };
      bool hw_ready = false;
      if (try_hw) {
        // One watchdog-armed ensure serves the whole batch: the budget is
        // capped by the earliest live member deadline, not just the
        // leader's, so a hung load cannot strand any member past its own
        // deadline.
        sim::SimTime dl = now() + opts_.hw_attempt_budget;
        for (const std::size_t i : live) {
          if (batch[i].deadline.ps() > 0 && batch[i].deadline < dl) {
            dl = batch[i].deadline;
          }
        }
        const sim::RequestContext ctx{leader.id, leader.behavior,
                                      leader.deadline.ps(),
                                      leader.submitted.ps()};
        p_->sim().set_active_request(&ctx);
        p_->set_load_deadline(dl);
        const EnsureStats es = mgr_.ensure(behavior, dock_width());
        p_->set_load_deadline(sim::SimTime{});
        p_->sim().set_active_request(nullptr);
        stage_sample(stages(behavior).reconfig, es.time.ps());
        if (p_->area_count() > 1 && es.ok) {
          // Per-area traffic: hits were served by a warm area (including
          // cross-area dock re-binds), loads paid a reconfiguration.
          counter((std::string("serve.area.") + std::to_string(es.area) +
                   (es.already_resident ? ".hits" : ".loads"))
                      .c_str())
              .add();
        }
        if (opts_.plan_cache && !es.already_resident) {
          // A swap actually ran: score the prefetcher's last prediction.
          if (prefetch_pending_ == behavior) {
            counter("serve.prefetch.hits").add();
            prefetch_pending_ = -1;
          } else {
            counter("serve.prefetch.misses").add();
          }
        }
        if (es.watchdog) {
          ++report_.watchdog_aborts;
          counter("serve.watchdog_aborts").add();
          mark("watchdog_abort", leader.id);
          incident("watchdog_abort", leader.id);
        }
        lead_c.watchdog = es.watchdog;
        lead_c.hw_detected = es.detected;
        lead_c.hw_giveup = !es.ok;
        hw_ready = es.ok;
        if (!es.ok) {
          lead_c.error = es.error;
          hw_failed(live.front());
        }
      }

      // Success bookkeeping shared by the chained and per-member paths.
      const auto hw_served = [&](std::size_t i, const ExecResult& r,
                                 sim::SimTime finished) {
        if (br.record_success()) {
          // Probe succeeded: hardware service is restored, and the fault
          // behind the manager's diff->complete degradation is gone too.
          ++report_.breaker_closes;
          counter("serve.breaker_closes").add();
          mark("breaker:close", batch[i].id);
          mgr_.reset_degraded();
        }
        ++report_.served_hw;
        counter("serve.hw").add();
        out[i].outcome = Outcome::kHw;
        out[i].digest = r.digest;
        out[i].golden_ok = r.golden_ok;
        out[i].finished = finished;
      };
      // Graceful degradation: the software kernel, bit-identical to the
      // hardware path (admission guaranteed it exists).
      const auto sw_served = [&](std::size_t i) {
        const ExecResult r = timed_exec(batch[i], /*hw=*/false);
        if (r.ok) {
          ++report_.degraded;
          counter("serve.degraded").add();
          mark("degrade:sw", batch[i].id);
          out[i].outcome = Outcome::kSw;
          out[i].digest = r.digest;
          out[i].golden_ok = r.golden_ok;
        } else {
          ++report_.failed;
          counter("serve.failed").add();
          mark("failed", batch[i].id);
        }
        out[i].finished = now();
      };

      if (hw_ready) {
        std::vector<BatchMember> ms(live.size());
        for (std::size_t j = 0; j < live.size(); ++j) {
          ms[j].input_seed = input_seed(batch[live[j]]);
        }
        bool chained = false;
        if (live.size() > 1) {
          const sim::RequestContext ctx{leader.id, leader.behavior,
                                        leader.deadline.ps(),
                                        leader.submitted.ps()};
          p_->sim().set_active_request(&ctx);
          const sim::SimTime t0 = now();
          chained = exec_image_batch(*p_, behavior, ms);
          if (chained) {
            stage_sample(stages(behavior).exec, (now() - t0).ps());
            if (track >= 0) {
              tr.complete(track, "exec:hw:chain", t0, now(), "req",
                          leader.id);
            }
          }
          p_->sim().set_active_request(nullptr);
        }
        if (chained) {
          const sim::SimTime chain_end = now();
          for (std::size_t j = 0; j < live.size(); ++j) {
            const std::size_t i = live[j];
            if (ms[j].result.golden_ok) {
              hw_served(i, ms[j].result, chain_end);
            } else {
              // A fault corrupted this member's beats mid-chain: degrade
              // only this member to the software kernel (bit-identical
              // digest); the rest of the batch is already done.
              out[i].hw_detected = true;
              counter("serve.batch.member_degraded").add();
              hw_failed(i);
              sw_served(i);
            }
          }
        } else {
          // Hash / pattern-match protocols (and the 32-bit platform) keep
          // their per-member drivers; the batch still amortizes the swap.
          for (const std::size_t i : live) {
            const ExecResult r = timed_exec(batch[i], /*hw=*/true);
            if (r.ok) {
              hw_served(i, r, now());
            } else {
              out[i].error = "hardware execution produced no result";
              hw_failed(i);
              sw_served(i);
            }
          }
        }
      } else {
        // No hardware path for this batch (breaker open or ensure failed):
        // every live member degrades to the software kernel, none is
        // stranded.
        for (const std::size_t i : live) sw_served(i);
      }
    }

    // The prefetcher warms plans off the simulated clock; the stage
    // histogram pins that invariant (always 0) into the §4 decomposition.
    const sim::SimTime prefetch_start = now();
    prefetch_next(batch.front());
    stage_sample(stages(behavior).prefetch, (now() - prefetch_start).ps());

    for (std::size_t i = 0; i < batch.size(); ++i) {
      Completion& c = out[i];
      if (c.finished.ps() == 0) c.finished = now();
      c.deadline_met =
          c.req.deadline.ps() == 0 || c.finished <= c.req.deadline;
      const bool served =
          c.outcome == Outcome::kHw || c.outcome == Outcome::kSw;
      if (!c.deadline_met && served) {
        ++report_.deadline_miss;
        counter("serve.deadline_miss").add();
        mark("deadline_miss", c.req.id);
      }
      if (served) {
        p_->sim().stats().histogram("serve.latency_ps").sample(
            (c.finished - c.req.submitted).ps());
        if (!c.golden_ok) report_.digests_ok = false;
      }
      observe_slos(c);
      if (track >= 0) {
        tr.instant(track, std::string("done:") + outcome_name(c.outcome),
                   now(), "req", c.req.id);
        tr.flow(trace::Phase::kFlowEnd, track, "req", c.req.id, now());
      }
      report_.completions.push_back(c);
    }
    if (track >= 0) tr.end(track, now());
    return out;
  }

  [[nodiscard]] sim::SimTime now() const { return p_->kernel().now(); }
  static constexpr int dock_width() {
    return std::is_same_v<Platform, Platform64> ? 64 : 32;
  }

  Completion make_completion(const Request& r, Outcome o) {
    Completion c;
    c.req = r;
    c.outcome = o;
    c.started = now();
    c.finished = now();
    return c;
  }

  /// Input seed for a request: a pure function of the server seed and the
  /// request id, so replays and -j settings cannot disturb it.
  [[nodiscard]] std::uint64_t input_seed(const Request& r) const {
    std::uint64_t h = kFnvOffset;
    h = fnv1a_u32(static_cast<std::uint32_t>(seed_), h);
    h = fnv1a_u32(static_cast<std::uint32_t>(seed_ >> 32), h);
    h = fnv1a_u32(static_cast<std::uint32_t>(r.id), h);
    return h;
  }

  /// Warm the manager's plan cache for the next queued request that would
  /// force a module swap. Pure host-side work between requests (zero
  /// simulated time), so the served outputs cannot observe it; the warm is
  /// traced as a SERVE instant and scored by serve.prefetch.* counters.
  void prefetch_next(const Request& just_served) {
    const Request* nx = queue_.peek_next_distinct(just_served.behavior);
    if (nx == nullptr) return;
    if (!mgr_.warm(static_cast<hw::BehaviorId>(nx->behavior), dock_width())) {
      return;
    }
    if (prefetch_pending_ >= 0 && prefetch_pending_ != nx->behavior) {
      counter("serve.prefetch.wasted").add();
    }
    prefetch_pending_ = nx->behavior;
    mark("prefetch:warm", nx->id);
  }

  /// Run the request's kernel under its request context, timing the
  /// execution stage and tracing it as a flow-linked complete span.
  ExecResult timed_exec(const Request& req, bool hw) {
    const sim::RequestContext ctx{req.id, req.behavior, req.deadline.ps(),
                                  req.submitted.ps()};
    p_->sim().set_active_request(&ctx);
    const sim::SimTime t0 = now();
    const ExecResult r = exec_request(*p_, req.behavior, input_seed(req), hw);
    p_->sim().set_active_request(nullptr);
    stage_sample(stages(req.behavior).exec, (now() - t0).ps());
    trace::Tracer& tr = p_->sim().tracer();
    if (tr.enabled()) {
      const int track = tr.track("SERVE");
      tr.complete(track, hw ? "exec:hw" : "exec:sw", t0, now(), "req", req.id);
      tr.flow(trace::Phase::kFlowStep, track, "req", req.id, t0);
    }
    return r;
  }

  /// Per-stage latency histograms: one aggregate series per stage plus a
  /// per-request-class series suffixed with the task name (the paper's §4
  /// cost decomposition, per class). Pointers into the registry are cached
  /// per behaviour so the hot path does no string building or map lookups.
  struct StagePair {
    sim::Histogram* all;
    sim::Histogram* cls;
  };
  struct StageHists {
    StagePair queue, prefetch, reconfig, exec;
  };
  static void stage_sample(const StagePair& h, std::int64_t v) {
    h.all->sample(v);
    h.cls->sample(v);
  }
  StageHists& stages(hw::BehaviorId behavior) {
    auto it = stage_hists_.find(behavior);
    if (it != stage_hists_.end()) return it->second;
    sim::StatRegistry& st = p_->sim().stats();
    const std::string cls{hw::task_name(behavior)};
    auto pair = [&](const char* stage) {
      const std::string base =
          std::string("serve.stage.") + stage + ".latency_ps";
      return StagePair{&st.histogram(base), &st.histogram(base + "." + cls)};
    };
    const StageHists h{pair("queue"), pair("prefetch"), pair("reconfig"),
                       pair("exec")};
    return stage_hists_.emplace(behavior, h).first->second;
  }

  static bool slo_good(const SloSpec& s, const Completion& c) {
    const bool served =
        c.outcome == Outcome::kHw || c.outcome == Outcome::kSw;
    switch (s.metric) {
      case SloSpec::Metric::kDeadline:
        return served && c.deadline_met;
      case SloSpec::Metric::kHwServe:
        return c.outcome == Outcome::kHw;
    }
    return false;
  }

  /// Feed every engine one sample for this disposition. A breach edge
  /// bumps counters, drops a SERVE instant and trips the flight recorder.
  void observe_slos(const Completion& c) {
    if (slos_.empty()) return;
    for (SloEngine& e : slos_) {
      const SloEngine::Evaluation ev =
          e.observe(now(), slo_good(e.spec(), c));
      counter("serve.slo.samples").add();
      if (ev.fired) {
        ++report_.slo_breaches;
        counter("serve.slo.breaches").add();
        trace::Tracer& tr = p_->sim().tracer();
        if (tr.enabled()) {
          tr.instant(
              tr.track("SERVE"),
              std::string("slo:burn:") + slo_metric_name(e.spec().metric),
              now(), "req", c.req.id);
        }
        incident("slo_burn", c.req.id);
      }
    }
  }

  void incident(const char* kind, std::int64_t req_id) {
    if (trace::FlightRecorder* fr = p_->sim().flight_recorder()) {
      fr->trigger(kind, req_id, now());
    }
  }

  /// The flight recorder's "serve" state provider: queue depth, breaker
  /// states and plan-cache occupancy at snapshot time.
  void write_state(std::ostream& os) const {
    os << "{\"queue\": {\"depth\": " << queue_.size()
       << ", \"capacity\": " << queue_.capacity() << "}, \"breakers\": {";
    bool first = true;
    for (const auto& [id, br] : breakers_) {
      if (!first) os << ", ";
      first = false;
      os << '"' << hw::task_name(static_cast<hw::BehaviorId>(id)) << "\": \""
         << breaker_state_name(br.state()) << '"';
    }
    os << "}, \"plan_cache\": {\"complete\": "
       << mgr_.plan_cache().complete_plans()
       << ", \"diff\": " << mgr_.plan_cache().diff_plans()
       << "}, \"prefetch_pending\": " << prefetch_pending_ << "}";
  }

  sim::Counter& counter(const char* name) {
    return p_->sim().stats().counter(name);
  }

  void mark(const char* what, std::int64_t req_id) {
    trace::Tracer& tr = p_->sim().tracer();
    if (tr.enabled()) {
      tr.instant(tr.track("SERVE"), what, now(), "req", req_id);
    }
  }

  Platform* p_;
  ModuleManager<Platform> mgr_;
  ServeOptions opts_;
  RequestQueue queue_;
  std::uint64_t seed_;
  std::map<int, CircuitBreaker> breakers_;
  std::map<int, StageHists> stage_hists_;
  std::vector<SloEngine> slos_;
  ServeReport report_;
  int prefetch_pending_ = -1;  // behaviour warmed but not yet consumed
};

/// Drive a closed-loop workload to completion: each client submits its next
/// request a think-time after its previous one was disposed of. When the
/// queue drains, the CPU idles to the next submission (there is no wall
/// clock -- everything, including idle periods, is simulated time).
///
/// `repair_at_completion` models field repair: after that many requests
/// have been disposed of, every armed fault is repaired (FaultInjector::
/// repair_all), so a subsequent half-open probe finds working hardware.
template <typename Platform>
ServeReport run_workload(Platform& p, const WorkloadSpec& w,
                         std::uint64_t seed, ServeOptions opts = {},
                         int repair_at_completion = -1) {
  TaskServer<Platform> srv(p, w.queue_capacity, opts, seed);
  sim::Rng rng{seed};

  struct Pending {
    std::int64_t at_ps;
    int client;
    bool operator>(const Pending& o) const {
      return at_ps != o.at_ps ? at_ps > o.at_ps : client > o.client;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> events;
  std::vector<int> remaining(static_cast<std::size_t>(w.clients), w.rounds);
  for (int cl = 0; cl < w.clients; ++cl) {
    events.push({p.kernel().now().ps() + draw_think_ps(rng, w), cl});
  }

  std::int64_t next_id = 1;
  std::int64_t disposed = 0;
  const auto dispose = [&](int client, std::int64_t at_ps) {
    ++disposed;
    if (repair_at_completion >= 0 && disposed == repair_at_completion &&
        p.faults() != nullptr) {
      p.faults()->repair_all();
    }
    if (remaining[static_cast<std::size_t>(client)] > 0) {
      events.push({at_ps + draw_think_ps(rng, w), client});
    }
  };

  while (!events.empty() || srv.pending()) {
    if (!srv.pending() && !events.empty() &&
        events.top().at_ps > p.kernel().now().ps()) {
      p.cpu().idle_until(sim::SimTime::from_ps(events.top().at_ps));
    }
    while (!events.empty() && events.top().at_ps <= p.kernel().now().ps()) {
      const Pending e = events.top();
      events.pop();
      Request r;
      r.id = next_id++;
      r.client = e.client;
      r.behavior = draw_behavior(rng, w);
      r.priority = draw_priority(rng);
      r.submitted = sim::SimTime::from_ps(e.at_ps);
      if (w.rel_deadline_ps > 0) {
        r.deadline = sim::SimTime::from_ps(e.at_ps + w.rel_deadline_ps);
      }
      --remaining[static_cast<std::size_t>(e.client)];
      if (srv.submit(r) != AdmitError::kNone) {
        // Shed (or refused): the round is lost; the client thinks, then
        // moves on to its next round.
        dispose(e.client, p.kernel().now().ps());
      }
    }
    if (srv.pending()) {
      for (const Completion& c : srv.serve_batch()) {
        dispose(c.req.client, c.finished.ps());
      }
    }
  }
  return srv.report();
}

/// Replay an open-loop arrival stream to completion: requests arrive at
/// their pre-drawn times whether or not earlier ones have finished, so
/// bursts genuinely pile up in the queue -- the heavy-traffic pressure a
/// closed loop's think-time feedback cannot create, and the regime where
/// slack-bounded batching pays (docs/SERVING.md "Batching").
template <typename Platform>
ServeReport run_open_workload(Platform& p, const OpenLoopSpec& spec,
                              std::uint64_t seed, ServeOptions opts = {}) {
  TaskServer<Platform> srv(p, spec.queue_capacity, opts, seed);
  srv.serve_script(make_open_stream(spec, seed));
  return srv.report();
}

}  // namespace rtr::serve
