// Default worker counts for the parallel runners (fleet::FleetSimulator,
// exp::Runner).
#pragma once

namespace hhpim {

/// The worker count a `threads` request resolves to: `requested` itself, or
/// for 0 one worker per CPU the calling thread may run on — the size of its
/// affinity mask where the platform exposes one (Linux sched_getaffinity, so
/// under `taskset -c 0` it is 1), else std::thread::hardware_concurrency().
/// At least 1.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

}  // namespace hhpim
