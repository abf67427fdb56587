// Cache-line padding for cross-worker data layout.
//
// Slots written by different worker threads (per-shard aggregates, result
// buffers) are padded to kCacheLine so two
// workers never invalidate each other's line — false sharing turns
// logically independent writes into coherence traffic, which is exactly the
// kind of silent serialization the parallel-scaling gate exists to catch
// (docs/PERF.md "Parallel scaling").
#pragma once

#include <cstddef>

namespace hhpim {

/// Destructive-interference granularity assumed for padding: 64 bytes on
/// x86-64 and most AArch64 parts. A hard constant instead of
/// std::hardware_destructive_interference_size, whose use GCC flags as
/// ABI-unstable (-Winterference-size) under the strict -Werror preset;
/// over- or under-shooting the true line size costs only a few bytes or a
/// little coherence traffic, never correctness.
inline constexpr std::size_t kCacheLine = 64;

}  // namespace hhpim
