// Streaming FNV-1a (64-bit) over canonical scalar encodings.
//
// The one hashing utility shared by the digest-producing layers:
// nn::Model::topology_hash(), sys::ArchConfig::config_hash(), the
// placement-LUT cache key (placement/lut_cache.hpp), the component state
// digest (common/state_visitor.hpp) and the fleet snapshot checksum
// (fleet/snapshot.cpp). Header-only so
// dependency-light subsystems (nn) can use it without pulling anything else
// out of common.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hhpim {

class Fnv1a {
 public:
  Fnv1a& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Fnv1a& add(int v) { return add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  /// Hashes the exact bit pattern, except that -0.0 is canonicalized to +0.0
  /// (the two compare equal; equal values must never hash apart).
  Fnv1a& add(double v) {
    if (v == 0.0) v = 0.0;
    return add(std::bit_cast<std::uint64_t>(v));
  }
  /// Hashes a byte run: its length first (so a zero-padded tail cannot
  /// collide), then 8 bytes per step, little-endian packed.
  Fnv1a& add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    add(static_cast<std::uint64_t>(size));
    for (std::size_t i = 0; i < size; i += 8) {
      std::uint64_t chunk = 0;
      const std::size_t n = size - i < 8 ? size - i : 8;
      for (std::size_t j = 0; j < n; ++j) {
        chunk |= static_cast<std::uint64_t>(bytes[i + j]) << (8 * j);
      }
      add(chunk);
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace hhpim
