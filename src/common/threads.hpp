// Worker counts and the shared claim loop of the parallel runners
// (fleet::FleetSimulator shards, exp::Runner runs).
#pragma once

#include <cstddef>
#include <functional>

namespace hhpim {

/// The worker count a `threads` request resolves to: `requested` itself, or
/// for 0 one worker per CPU the calling thread may run on — the size of its
/// affinity mask where the platform exposes one (Linux sched_getaffinity, so
/// under `taskset -c 0` it is 1), else std::thread::hardware_concurrency().
/// At least 1.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Workers actually spawned for `requested` threads over `items` work items:
/// min(resolve_threads(requested), items), at least 1. Surplus workers would
/// only contend on the claim counter.
[[nodiscard]] unsigned resolve_workers(unsigned requested, std::size_t items);

/// Calls `body(worker, i)` exactly once for every i in [0, n), on `workers`
/// threads that each claim one index per relaxed fetch_add on a shared
/// counter; `worker` in [0, workers) names the calling thread, for per-worker
/// scratch. One worker runs inline on the calling thread. A throwing call
/// does not stop the loop: every other index still runs, and the exception
/// of the lowest failing index is rethrown after the join — the same one at
/// any worker count.
void claim_each(std::size_t n, unsigned workers,
                const std::function<void(unsigned worker, std::size_t i)>& body);

}  // namespace hhpim
