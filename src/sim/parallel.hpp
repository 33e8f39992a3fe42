// The one host worker pool: independent simulations (sweep and serve
// scenarios, fleet shards) run on it, each writing only its own result
// slot, so output is byte-identical at any worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace rtr::sim {

/// Worker count for a `-j N` option: N when positive, otherwise the host's
/// hardware concurrency (at least 1).
inline int default_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// Run fn(i) for every i in [0, n) on up to `jobs` host threads, the
/// calling thread included. Indices are claimed through an atomic cursor,
/// so which thread runs which index varies run to run: fn(i) must touch
/// nothing shared except slot i of its caller's results.
template <typename Fn>
void for_each_slot(std::size_t n, int jobs, Fn&& fn) {
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(jobs < 1 ? 1 : jobs));
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace rtr::sim
