// One state walk, two visitors: the checkpoint contract of every stateful
// hardware component.
//
// Each component — energy::LeakageTracker, mem::Bank, pe::ProcessingElement,
// noc::Link, pim::DataAllocator, pim::PimModule, pim::Cluster and
// sys::Processor — names its state once, in
//
//   template <class V> void visit_state(V& v, Time now);
//
// and that one walk is run by two visitors:
//
//   StateSaver   appends them to a ByteWriter: Processor::save_state(), the
//                per-device blob of a fleet::FleetSnapshot and the name of
//                a state in the fleet's outcome memo (fleet::OutcomeCache);
//   StateLoader  reads them back from a ByteReader: Processor::load_state().
//
// So the loaded state is exactly the saved state, by construction, and a
// new state field is written once. fleet/snapshot.cpp codes its own records
// (the payload, LUT keys, carried histograms, device records) the same way:
// one walk per record, run by an encoder over a ByteSizer or a SpanWriter
// and by a decoder over a ByteReader.
//
// What a walk contains:
//   * Behavior, not history. Two components whose walks agree at a slice
//     boundary behave identically for all future operations. Cumulative
//     counters, on-time totals, the ledger, the slice index and the absolute
//     clock are history and stay out.
//   * Times relative to `now`. A leakage anchor is a signed offset
//     (relative). An occupancy horizon is clamped at 0 (horizon): every
//     operation starts at max(now, busy_until), so a horizon in the past
//     means "free now", and clamping keeps stale history out of the saved
//     bytes — without it the outcome memo would never converge.
//   * No derived values. A bank's leakage power follows from (on, active
//     bytes) and is recomputed on load; PE leakage is a config constant
//     that reset() already sets.
//   * Storage contents only as byte runs, and only when they can differ
//     from zero (a dirty bank, host RAM). The accounting-only burst path
//     never writes data, so fleet and grid runs never save a bank's bytes.
//   * Shape is checked, never restored. Module counts, MRAM and cluster
//     presence and byte-run sizes are fixed at construction; on load a
//     mismatch (a blob from another arch or model) throws
//     std::runtime_error.
//
// Loading runs on a freshly constructed or reset() component; loaded times
// are `now` plus the stored offset (the processor rebases its clock to zero
// first). Only StateLoader writes through the references it is handed: the
// walk is a non-const member so one body serves both visitors, and the
// const entry point (save_state) casts const away for the read-only one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/serialize.hpp"
#include "common/units.hpp"

namespace hhpim {

namespace state_detail {

inline std::int64_t clamped_horizon(Time t, Time now) {
  return std::max<std::int64_t>((t - now).as_ps(), 0);
}

[[noreturn]] inline void mismatch(std::string_view what, std::string_view owner) {
  throw std::runtime_error("snapshot: " + std::string(what) + " mismatch for " +
                           std::string(owner));
}

}  // namespace state_detail

/// Appends a walk to a ByteWriter: flags as u8, counts and shapes as u64,
/// times as i64, byte runs length-prefixed.
class StateSaver {
 public:
  static constexpr bool kLoad = false;

  explicit StateSaver(ByteWriter& w) : w_(w) {}

  void flag(bool& b) { w_.u8(b ? 1 : 0); }
  template <class T>
  void count(T& n) {
    w_.u64(static_cast<std::uint64_t>(n));
  }
  void relative(Time& t, Time now) { w_.i64((t - now).as_ps()); }
  void horizon(Time& t, Time now) { w_.i64(state_detail::clamped_horizon(t, now)); }
  void bytes(std::span<std::uint8_t> run, std::string_view, std::string_view) {
    w_.blob(std::string_view{reinterpret_cast<const char*>(run.data()), run.size()});
  }
  void shape(std::uint64_t n, std::string_view, std::string_view) { w_.u64(n); }

 private:
  ByteWriter& w_;
};

/// Reads a walk back from a ByteReader, checking shapes.
class StateLoader {
 public:
  static constexpr bool kLoad = true;

  explicit StateLoader(ByteReader& r) : r_(r) {}

  void flag(bool& b) { b = r_.u8() != 0; }
  template <class T>
  void count(T& n) {
    n = static_cast<T>(r_.u64());
  }
  void relative(Time& t, Time now) { t = now + Time::ps(r_.i64()); }
  void horizon(Time& t, Time now) { relative(t, now); }
  void bytes(std::span<std::uint8_t> run, std::string_view what, std::string_view owner) {
    const std::string_view stored = r_.blob();
    if (stored.size() != run.size()) state_detail::mismatch(what, owner);
    std::copy(stored.begin(), stored.end(), reinterpret_cast<char*>(run.data()));
  }
  void shape(std::uint64_t n, std::string_view what, std::string_view owner) {
    if (r_.u64() != n) state_detail::mismatch(what, owner);
  }

 private:
  ByteReader& r_;
};

}  // namespace hhpim
