// Streaming FNV-1a (64-bit) over canonical scalar encodings, plus the
// blob checksum.
//
// Fnv1a is the one hashing utility shared by the digest-producing layers:
// nn::Model::topology_hash(), sys::ArchConfig::config_hash(), the
// placement-LUT cache key (placement/lut_cache.hpp), the processor reuse
// key (hhpim/processor.hpp) and the fleet spec digest. checksum64
// guards serialized blobs (the fleet snapshot, fleet/snapshot.cpp) against
// corruption. Header-only so dependency-light subsystems (nn) can use it
// without pulling anything else out of common.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

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

namespace detail {

/// The 8 bytes at `p` as a little-endian word, on any host.
inline std::uint64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return v;
}

/// One checksum step: xor, multiply by an odd constant, rotate. A bijection
/// of `state` for a fixed `word`, and of `word` for a fixed `state`.
constexpr std::uint64_t checksum_step(std::uint64_t state, std::uint64_t word) {
  return std::rotl((state ^ word) * 0x9e3779b97f4a7c15ULL, 31);
}

}  // namespace detail

/// Corruption check for serialized blobs — not a content key: equal
/// checksums say nothing about equal content, use Fnv1a digests for that.
///
/// Four independent lanes take the little-endian 8-byte words in turn
/// (word i goes to lane i mod 4), so the multiplies of neighbouring words
/// overlap and the loop runs near memory speed. Every step is a bijection
/// of its lane's state, and the lanes, the length and the 0–7 tail bytes
/// are folded into one word by bijective steps before a murmur3-style
/// finalizer. So two inputs of equal length that differ only inside one
/// 8-byte word (counted from the start of `bytes`) always have different
/// checksums: every single-bit flip is detected.
[[nodiscard]] inline std::uint64_t checksum64(std::string_view bytes) {
  using detail::checksum_step;
  using detail::load_le64;
  std::uint64_t lane[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                           0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  const char* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; n - i >= 32; i += 32) {
    lane[0] = checksum_step(lane[0], load_le64(p + i));
    lane[1] = checksum_step(lane[1], load_le64(p + i + 8));
    lane[2] = checksum_step(lane[2], load_le64(p + i + 16));
    lane[3] = checksum_step(lane[3], load_le64(p + i + 24));
  }
  for (int l = 0; n - i >= 8; i += 8, ++l) {
    lane[l] = checksum_step(lane[l], load_le64(p + i));
  }
  std::uint64_t tail = 0;
  for (std::size_t j = 0; i + j < n; ++j) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i + j])) << (8 * j);
  }
  std::uint64_t h = static_cast<std::uint64_t>(n);
  for (const std::uint64_t s : lane) h = checksum_step(h, s);
  h = checksum_step(h, tail);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace hhpim
