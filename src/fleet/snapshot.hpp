// Fleet checkpoint/restore: a FleetSnapshot is the whole fleet's state at a
// global slice boundary, serialized with common/serialize ByteSizer/
// SpanWriter/ByteReader into a versioned, field-tagged, checksummed binary
// blob. Each record of the format is one walk that names its fields once;
// the encoder (sizing, then writing) and the decoder run that same walk, so
// what is read back is what was written, by construction.
//
// The device records are cut into frames of 256 devices, each with its byte
// length and checksum in a frame table, so the codec encodes and decodes
// the frames on several threads (claim_each) into and out of one buffer of
// the exact size. The frame size is a format constant: the bytes do not
// depend on the thread count. The trailing checksum covers everything before
// the frames, the frame table included; docs/FLEET.md has the layout.
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
  /// Threads to_bytes encodes the frames on (capped at the frame count):
  /// the producing run's resolved thread count (run_to) or the decoding
  /// one's (from_bytes). A hand-built snapshot stays serial. Not stored.
  unsigned threads = 1;

  /// Serializes to the versioned binary format (magic, version, the head
  /// fields and frame table, the frames, and a trailing checksum64 of the
  /// head) in one buffer of the exact final size. The bytes are the same
  /// at any `threads`.
  [[nodiscard]] std::string to_bytes() const;

  /// Parses to_bytes() output, decoding the frames on `threads` threads
  /// (as FleetOptions::threads: 0 = one per CPU the process may run on).
  /// Throws std::runtime_error (and only that) on a bad magic, a version
  /// other than this build's, a checksum mismatch, a truncated stream, a
  /// record count larger than the bytes left, a carried histogram with a
  /// bad shape or counts summing past 2^64 - 1, frame lengths that run past
  /// the payload or do not fill it, a frame whose records end short of its
  /// end or run past it, a device record whose tags break the writer's one
  /// order (an unknown, missing, repeated or out-of-order field), or a blob
  /// index past the blob table. Offsets in the diagnostics count from the
  /// payload's start. The error does not depend on `threads`: a head error
  /// wins, then the failing frame of the lowest index. Device identity and
  /// the histograms' shape and totals are checked later, against the spec,
  /// by FleetSimulator::run_to/resume; equal blobs decode to one shared
  /// StateBlob.
  [[nodiscard]] static FleetSnapshot from_bytes(std::string_view bytes,
                                                unsigned threads = 0);

  /// to_bytes()/from_bytes() through a file. Throw std::runtime_error on
  /// I/O failure.
  void save(const std::string& path) const;
  [[nodiscard]] static FleetSnapshot load(const std::string& path, unsigned threads = 0);
};

}  // namespace hhpim::fleet
