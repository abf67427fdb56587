// Fleet checkpoint/restore: a FleetSnapshot is the whole fleet's state at a
// global slice boundary, serialized with common/serialize ByteWriter/Reader
// into a versioned, field-tagged, checksummed binary blob. Each record of
// the format is one walk that names its fields once; the encoder (sizing,
// then writing) and the decoder run that same walk, so what is read back is
// what was written, by construction.
//
// Produced by FleetSimulator::run_to and consumed by run_to/resume: a
// simulated week can run as N resumable segments — across process restarts
// — whose concatenated output (JSONL shards, summary, FleetResult) is
// byte-identical to one uninterrupted run at any thread count (pinned by
// tests/test_oracle.cpp). The format fails loudly: truncated, corrupted,
// version-skewed or wrong-spec blobs all throw std::runtime_error with a
// diagnostic — a snapshot is never silently misread.
//
// Processor state is stored once per distinct blob: a table of
// Processor::save_state blobs deduplicated by bytes, and per live device an
// index into it. The bytes are the state's only name: a resuming run with
// the memo on resolves each distinct blob to its OutcomeCache state once.
// Devices of a converged fleet share a few dozen blobs.
//
// What is NOT stored: load traces (a live device's load cursor is rebuilt
// from the spec at its next step; only a randomized shape's four generator
// words are kept, since reaching them again would mean redrawing the trace),
// LUT-cache contents (rebuilt per process; lut_builds stats stay correct
// via the counted-pair list below), and OutcomeCache contents (a resumed
// device in a cold process misses, loads its blob and runs exact, which
// re-seeds the memo; the output is the same either way).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/device.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {

struct FleetSnapshot {
  /// FleetSpec::content_digest() of the originating run; run_to/resume
  /// refuse a snapshot whose digest does not match the spec they're given.
  std::uint64_t spec_digest = 0;
  /// First global slice the next segment executes (== the `end_slice` the
  /// producing run_to was given).
  int next_slice = 0;
  /// LUT builds counted so far across segments, and the LUT-cache keys
  /// already accounted — so a (firmware, model) pair first active in a
  /// later segment, or a rebuild after a process restart, is never
  /// double-counted into the summary's lut_builds (which counts *logical*
  /// builds of the whole segmented run, matching what one uninterrupted
  /// run would have measured).
  std::uint64_t lut_builds = 0;
  std::vector<placement::LutCacheKey> lut_counted;
  /// The slice histograms of every slice executed before next_slice: each
  /// slice is binned where it runs, so a device's earlier slices live here,
  /// not in its record. Shaped by the originating spec's histograms.
  SliceHistograms slice_bins;
  /// One entry per device, in id order (devices not yet joined included,
  /// with started == false).
  std::vector<DeviceProgress> devices;

  /// Serializes to the versioned binary format (magic, version, tagged
  /// payload, trailing checksum64 of the payload) in one buffer of the
  /// exact final size.
  [[nodiscard]] std::string to_bytes() const;

  /// Parses to_bytes() output. Throws std::runtime_error (and only that) on
  /// a bad magic, a version other than this build's, a checksum mismatch, a
  /// truncated stream, a record count larger than the bytes left, a carried
  /// histogram with a bad shape or counts summing past 2^64 - 1, a device
  /// record whose tags break the writer's one order (an unknown, missing,
  /// repeated or out-of-order field), or a blob index past the blob table.
  /// Device identity and the histograms' shape and totals are checked
  /// later, against the spec, by FleetSimulator::run_to/resume; equal blobs
  /// decode to one shared StateBlob.
  [[nodiscard]] static FleetSnapshot from_bytes(std::string_view bytes);

  /// to_bytes()/from_bytes() through a file. Throw std::runtime_error on
  /// I/O failure.
  void save(const std::string& path) const;
  [[nodiscard]] static FleetSnapshot load(const std::string& path);
};

}  // namespace hhpim::fleet
