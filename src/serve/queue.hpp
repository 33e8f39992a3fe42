// Bounded priority request queue (admission control).
//
// Three FIFOs, one per priority; the baseline pop order is the highest
// non-empty priority, FIFO within it, so ordering is a pure function of
// (priority, admission order) and independent of anything host-side. A full queue rejects with
// a typed error instead of growing -- shedding at admission is the serving
// layer's first line of overload defence.
//
// Two pop paths may reorder within that baseline, both bounded by the same
// starvation guard: pop_affine (multi-area affinity dispatch) and pop_batch
// (swap-aware batch extraction, docs/SERVING.md "Batching"). Every time a
// queued request is passed over by either path its `bypassed` counter is
// incremented; a request whose counter has reached max_bypass is *aged* and
// may not be passed over again by either path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "serve/request.hpp"
#include "sim/check.hpp"
#include "sim/time.hpp"

namespace rtr::serve {

enum class AdmitError : int {
  kNone = 0,
  kQueueFull,         // bounded queue at capacity: shed
  kUnservable,        // behaviour has neither hw module nor sw kernel
  kNoHealthyDevice,   // fleet: every shard that could host it is quarantined
};
const char* admit_error_name(AdmitError e);

/// Swap-aware batching knobs (ServeOptions::batch). max_batch <= 1 disables
/// batching entirely; slack_ps is the minimum deadline headroom a queued
/// request must have for batch extraction to be allowed to jump it.
struct BatchPolicy {
  int max_batch = 1;
  std::int64_t slack_ps = sim::SimTime::from_ms(20).ps();
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity) : cap_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t size() const {
    return q_[0].size() + q_[1].size() + q_[2].size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Admit `r` or reject with a typed error. Never grows past capacity.
  AdmitError admit(const Request& r) {
    if (size() >= cap_) return AdmitError::kQueueFull;
    q_[static_cast<std::size_t>(r.priority)].push_back(r);
    return AdmitError::kNone;
  }

  /// The next request (in pop order) whose behaviour differs from
  /// `behavior`, or null. Used by the server's plan prefetch: warming the
  /// plan for the request that will actually force a swap, not for queued
  /// repeats of the resident module.
  [[nodiscard]] const Request* peek_next_distinct(int behavior) const {
    for (const auto& q : q_) {
      for (const Request& r : q) {
        if (r.behavior != behavior) return &r;
      }
    }
    return nullptr;
  }

  /// Affinity pop (multi-area devices, docs/PLACEMENT.md): within the
  /// highest non-empty priority class, prefer the oldest request whose
  /// behaviour `resident` says is already hosted by some dynamic area --
  /// serving warm requests first batches work per configuration and turns
  /// co-residency into fewer swaps. Every request jumped that way has its
  /// bypass counter incremented; a request that has been passed over
  /// max_bypass times (by this path or by batch extraction) is aged and is
  /// never bypassed again, so a cold behaviour cannot starve. Priority
  /// still dominates: a lower class is never popped over a higher one.
  /// With nothing resident this is the strict baseline order.
  /// Pure function of (queue content, residency, bypass counters).
  template <typename ResidentFn>
  Request pop_affine(ResidentFn&& resident, int max_bypass) {
    for (auto& q : q_) {
      if (q.empty()) continue;
      if (q.front().bypassed < max_bypass && !resident(q.front().behavior)) {
        for (std::size_t i = 1; i < q.size(); ++i) {
          // The warm search may not jump past an aged request either: aging
          // protects every queued request, not just the head.
          if (q[i].bypassed >= max_bypass) break;
          if (resident(q[i].behavior)) {
            for (std::size_t j = 0; j < i; ++j) ++q[j].bypassed;
            Request r = q[i];
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
            return r;
          }
        }
      }
      // Head pops: resident head, no warm candidate, or aged head.
      Request r = q.front();
      q.pop_front();
      return r;
    }
    RTR_CHECK(false, "pop from an empty request queue");
    __builtin_unreachable();
  }

  /// Swap-aware batch extraction (docs/SERVING.md "Batching"): pick the
  /// leader exactly as pop_affine would, then extend the batch with queued
  /// requests of the same behaviour, scanning in pop order (priority class,
  /// then FIFO), up to pol.max_batch members. Extension stops at the first
  /// skipped request that must not be jumped: one that is aged (bypass
  /// counter at max_bypass -- the guard shared with pop_affine) or whose
  /// deadline is within pol.slack_ps of `now` (not enough slack to absorb
  /// the batch's service time). Crossing into a lower priority class is
  /// only possible when every remaining higher-class request passed that
  /// test, and every request actually jumped has its bypass counter
  /// incremented once. Deterministic: a pure function of (queue content,
  /// residency, bypass counters, now).
  template <typename ResidentFn>
  std::vector<Request> pop_batch(ResidentFn&& resident, int max_bypass,
                                 const BatchPolicy& pol, sim::SimTime now) {
    std::vector<Request> batch;
    batch.push_back(pop_affine(resident, max_bypass));
    if (pol.max_batch <= 1) return batch;
    const int want = batch.front().behavior;
    const auto may_jump = [&](const Request& r) {
      if (r.bypassed >= max_bypass) return false;
      return r.deadline.ps() == 0 ||
             r.deadline.ps() >= now.ps() + pol.slack_ps;
    };
    // Scan in pop order, collecting member positions until the batch is
    // full or a skipped request fences further extension.
    constexpr std::size_t kClasses = kPriorityCount;
    std::vector<std::size_t> take[kClasses];
    int members = 1;
    std::size_t last_cls = 0, last_idx = 0;  // position of the last member
    bool fenced = false;
    for (std::size_t cls = 0; cls < kClasses && !fenced; ++cls) {
      for (std::size_t i = 0; i < q_[cls].size(); ++i) {
        if (members >= pol.max_batch) {
          fenced = true;
          break;
        }
        if (q_[cls][i].behavior == want) {
          take[cls].push_back(i);
          last_cls = cls;
          last_idx = i;
          ++members;
        } else if (!may_jump(q_[cls][i])) {
          fenced = true;
          break;
        }
      }
    }
    // Every non-member before the last member in pop order was jumped.
    if (members > 1) {
      for (std::size_t cls = 0; cls <= last_cls; ++cls) {
        const std::size_t end =
            cls == last_cls ? last_idx + 1 : q_[cls].size();
        std::size_t t = 0;
        for (std::size_t i = 0; i < end; ++i) {
          if (t < take[cls].size() && take[cls][t] == i) {
            ++t;
          } else {
            ++q_[cls][i].bypassed;
          }
        }
      }
      for (std::size_t cls = 0; cls < kClasses; ++cls) {
        for (auto it = take[cls].rbegin(); it != take[cls].rend(); ++it) {
          batch.push_back(q_[cls][*it]);
          q_[cls].erase(q_[cls].begin() + static_cast<std::ptrdiff_t>(*it));
        }
        // Restore extraction (pop) order within the class.
        std::reverse(batch.end() - static_cast<std::ptrdiff_t>(
                                       take[cls].size()),
                     batch.end());
      }
    }
    return batch;
  }

 private:
  std::size_t cap_;
  std::deque<Request> q_[kPriorityCount];
};

}  // namespace rtr::serve
