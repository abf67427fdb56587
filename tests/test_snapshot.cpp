// Checkpoint/restore suite: the format's loud-failure guarantees
// (truncated, corrupted, other-version, wrong-spec blobs, forged frame
// tables and devices that do not match the spec all throw with a
// diagnostic, the same at any thread count), frames encoded alike at any
// thread count, lifecycle/envelope/charging semantics, the load cursors'
// literal references, slice binning, LUT-build accounting across
// segments, and a week-scale segmented run. That
// a run cut into resumable segments (FleetSimulator::run_to + resume)
// reproduces the uninterrupted run's bytes on any spec is the differential
// oracle's (test_oracle.cpp), as is the processor state-walk check on every
// cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {
namespace {

/// Magic and version precede the checksummed payload.
constexpr std::size_t kHeaderBytes = 12;

/// cases::small_fleet with a battery small enough that some devices exhaust
/// mid-run.
FleetSpec small_fleet(int devices, int slices) {
  FleetSpec spec = cases::small_fleet(devices, slices);
  spec.battery.capacity = Energy::mj(10.0);
  return spec;
}

struct RunOutput {
  std::string jsonl;
  std::string summary;
};

/// Shard size 7 is deliberately not a divisor of the device counts.
FleetOptions base_options(unsigned threads, bool memo, placement::LutCache* lut,
                          OutcomeCache* outcome) {
  return cases::options(threads, 7, lut, memo ? outcome : nullptr);
}

/// One uninterrupted run on fresh caches (fresh so lut_builds in the summary
/// is comparable between runs — a shared warm cache would zero the delta).
RunOutput run_whole(const FleetSpec& spec, unsigned threads, bool memo) {
  placement::LutCache lut;
  OutcomeCache outcome;
  const FleetSimulator sim{base_options(threads, memo, &lut, &outcome)};
  const FleetResult r = sim.run(spec);
  return {r.to_jsonl(), r.summary_to_json()};
}

/// The same run cut at the given global slice boundaries, each snapshot
/// round-tripped through the binary format between segments.
RunOutput run_segmented(const FleetSpec& spec, const std::vector<int>& cuts,
                        unsigned threads, bool memo) {
  placement::LutCache lut;
  OutcomeCache outcome;
  const FleetSimulator sim{base_options(threads, memo, &lut, &outcome)};
  FleetSnapshot snap;
  bool have = false;
  for (const int cut : cuts) {
    snap = sim.run_to(spec, cut, have ? &snap : nullptr);
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    have = true;
  }
  const FleetResult r = have ? sim.resume(spec, snap) : sim.run(spec);
  return {r.to_jsonl(), r.summary_to_json()};
}

/// A battery (mJ) that dies mid-trace for small_fleet-sized devices over 12
/// slices: late enough that some exhaust after their rotated trace wrapped.
constexpr double kWrapCapacityMj = 40.0;

// --- long-horizon segments --------------------------------------------------

TEST(Snapshot, WeekScaleSegmentsMatchUninterrupted) {
  // Scaled-down week: 672 slices (7 days x 24 h x 4) as 7 one-day segments.
  // The full 10k-device week runs as a CI smoke; this keeps the shape — long
  // horizon, day-boundary cuts, churn + diurnal envelope — in the inner loop.
  FleetSpec spec = small_fleet(96, 672);
  spec.battery.capacity = Energy::mj(2000.0);
  spec.lifecycle.join_fraction = 0.25;
  spec.lifecycle.leave_fraction = 0.25;
  spec.charging = {.period = 96, .window = 24,
                   .energy_per_slice = Energy::mj(40.0)};
  spec.envelope.enabled = true;
  spec.envelope.shape = workload::Scenario::kPulsing;
  spec.envelope.min_multiplier = 0.25;
  spec.envelope.max_multiplier = 1.25;
  const RunOutput whole = run_whole(spec, 8, true);
  const RunOutput seg =
      run_segmented(spec, {96, 192, 288, 384, 480, 576}, 8, true);
  EXPECT_EQ(seg.jsonl, whole.jsonl);
  EXPECT_EQ(seg.summary, whole.summary);
}

TEST(Snapshot, DirectBusyFeedMatchesEveryCutAndDeviceRun) {
  // A final segment feeds busy_us as its slices run, after the stored column
  // of each device resumed or finished earlier; Device::run feeds it as it
  // runs too. One shot, a cut at every slice and per-device Device::run must
  // give the same bytes, at 1 and 4 threads with the memo on and off. Some
  // devices exhaust or leave before the last cut, so finished devices'
  // stored columns are fed as well.
  FleetSpec spec = small_fleet(40, 12);
  spec.lifecycle.join_fraction = 0.3;
  spec.lifecycle.leave_fraction = 0.3;
  placement::LutCache ref_lut;
  const FleetResult ref = FleetSimulator{base_options(1, false, &ref_lut, nullptr)}.run(spec);
  const RunOutput want{ref.to_jsonl(), ref.summary_to_json()};

  const FleetSnapshot last =
      FleetSimulator{base_options(1, false, &ref_lut, nullptr)}.run_to(spec, spec.slices - 1);
  const auto finished_with_samples =
      std::count_if(last.devices.begin(), last.devices.end(),
                    [](const DeviceProgress& p) { return p.done && !p.busy.empty(); });
  EXPECT_GT(finished_with_samples, 0);

  std::vector<int> every;
  for (int k = 1; k < spec.slices; ++k) every.push_back(k);
  for (const unsigned threads : {1U, 4U}) {
    for (const bool memo : {false, true}) {
      const RunOutput whole = run_whole(spec, threads, memo);
      EXPECT_EQ(whole.jsonl, want.jsonl) << "threads=" << threads << " memo=" << memo;
      EXPECT_EQ(whole.summary, want.summary) << "threads=" << threads << " memo=" << memo;
      const RunOutput seg = run_segmented(spec, every, threads, memo);
      EXPECT_EQ(seg.jsonl, want.jsonl) << "threads=" << threads << " memo=" << memo;
      EXPECT_EQ(seg.summary, want.summary) << "threads=" << threads << " memo=" << memo;
    }
  }

  // Device::run per device, each shard into its own aggregate, merged in
  // shard order (base_options' shard size, 7).
  FleetResult per = ref;
  per.aggregate = FleetAggregate{spec.histograms};
  const std::vector<nn::Model> models = spec.resolved_models();
  const DeviceExpander expander{spec};
  DeviceSpec ds;
  std::vector<DeviceResult> devices;
  for (std::size_t begin = 0; begin < expander.size(); begin += 7) {
    FleetAggregate shard{spec.histograms};
    for (std::size_t i = begin; i < std::min(expander.size(), begin + 7); ++i) {
      expander.at(i, ds);
      devices.push_back(Device{spec, ds, models[ds.model_index], &ref_lut}.run(&shard));
    }
    per.aggregate.merge(shard);
  }
  per.devices = DeviceResults{devices};
  EXPECT_EQ(per.to_jsonl(), want.jsonl);
  EXPECT_EQ(per.summary_to_json(), want.summary);
}

// --- loud failure: window, digest, blob --------------------------------------

TEST(Snapshot, RejectsBadWindows) {
  const FleetSpec spec = small_fleet(4, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  EXPECT_THROW((void)sim.run_to(spec, 0), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, -1), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, 7), std::invalid_argument);
  const FleetSnapshot snap = sim.run_to(spec, 3);
  EXPECT_THROW((void)sim.run_to(spec, 3, &snap), std::invalid_argument);
  EXPECT_THROW((void)sim.run_to(spec, 2, &snap), std::invalid_argument);
  EXPECT_NO_THROW((void)sim.run_to(spec, 4, &snap));
}

TEST(Snapshot, RejectsSpecMismatch) {
  const FleetSpec spec = small_fleet(4, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetSnapshot snap = sim.run_to(spec, 3);

  FleetSpec reseeded = spec;
  reseeded.seed ^= 1;
  EXPECT_THROW((void)sim.resume(reseeded, snap), std::runtime_error);
  FleetSpec recharged = spec;
  recharged.charging = {.period = 2, .window = 1,
                        .energy_per_slice = Energy::mj(1.0)};
  EXPECT_THROW((void)sim.run_to(recharged, 5, &snap), std::runtime_error);
  EXPECT_NO_THROW((void)sim.resume(spec, snap));
}

TEST(Snapshot, RoundTripsThroughBytesAndFiles) {
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetSnapshot snap = sim.run_to(spec, 3);
  const std::string bytes = snap.to_bytes();
  const FleetSnapshot back = FleetSnapshot::from_bytes(bytes);
  EXPECT_EQ(back.to_bytes(), bytes);
  EXPECT_EQ(back.spec_digest, snap.spec_digest);
  EXPECT_EQ(back.next_slice, 3);
  EXPECT_EQ(back.devices.size(), snap.devices.size());

  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/hhpim_snapshot_test.bin";
  snap.save(path);
  const FleetSnapshot loaded = FleetSnapshot::load(path);
  EXPECT_EQ(loaded.to_bytes(), bytes);
  std::remove(path.c_str());
}

TEST(Snapshot, FailsLoudlyOnDamagedBlobs) {
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const std::string bytes = sim.run_to(spec, 3).to_bytes();

  // Truncation at every prefix length must throw, never misread: the header
  // check, the checksum, or the payload walk catches it.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{11}, std::size_t{12},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW((void)FleetSnapshot::from_bytes(bytes.substr(0, keep)),
                 std::runtime_error)
        << "keep=" << keep;
  }

  // A flipped bit anywhere in the payload or the checksum fails the
  // checksum: every single bit of a one-device snapshot (live, so with a
  // processor blob and samples), exhaustively — checksum64 detects any
  // change confined to one 8-byte word.
  {
    FleetSpec live = small_fleet(1, 6);
    live.battery.capacity = Energy::mj(1000.0);
    const FleetSnapshot one_snap = sim.run_to(live, 3);
    ASSERT_NE(one_snap.devices[0].proc_blob, nullptr);
    ASSERT_FALSE(one_snap.devices[0].busy.empty());
    const std::string one = one_snap.to_bytes();
    std::string flipped = one;
    for (std::size_t at = kHeaderBytes; at < flipped.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        try {
          (void)FleetSnapshot::from_bytes(flipped);
          ADD_FAILURE() << "bit " << bit << " of byte " << at << " flipped unnoticed";
        } catch (const std::runtime_error&) {
        }
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      }
    }
    EXPECT_EQ(flipped, one);
  }

  // Two distinct payload words swapped across checksum lanes (word i of the
  // payload feeds lane i mod 4) fail the checksum too.
  int swaps = 0;
  const std::size_t words = (bytes.size() - kHeaderBytes - 8) / 8;
  for (std::size_t a = 0; a + 3 < words; a += 61) {
    for (std::size_t d = 1; d <= 3; ++d) {
      const std::size_t x = kHeaderBytes + 8 * a;
      const std::size_t y = kHeaderBytes + 8 * (a + d);
      if (bytes.compare(x, 8, bytes, y, 8) == 0) continue;
      std::string swapped = bytes;
      swapped.replace(x, 8, bytes, y, 8);
      swapped.replace(y, 8, bytes, x, 8);
      EXPECT_THROW((void)FleetSnapshot::from_bytes(swapped), std::runtime_error)
          << "words " << a << " and " << a + d;
      ++swaps;
    }
  }
  EXPECT_GT(swaps, 10);

  // Wrong magic: not a snapshot at all.
  std::string not_snap = bytes;
  not_snap[0] = static_cast<char>(not_snap[0] ^ 0xff);
  EXPECT_THROW((void)FleetSnapshot::from_bytes(not_snap), std::runtime_error);

  // A future format version is refused even with a valid checksum — the
  // version field (bytes 8..11) is outside the checksummed payload.
  std::string future = bytes;
  future[8] = 99;
  try {
    (void)FleetSnapshot::from_bytes(future);
    FAIL() << "future-version blob was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }

  // Older versions are refused the same way: a reader parses only its own
  // layout (version 1 blobs carried tracker leakage bits and the slice
  // index in every processor blob; version 2 interleaved the samples and
  // was checksummed with FNV-1a; version 3 stored each live device's
  // processor blob inline, with no digest; version 4 processor blobs
  // carried a per-cluster controller; version 5 live devices carried no
  // load cursor words; version 6 devices carried an energy column and no
  // histograms were carried; version 7 live devices carried a state digest
  // after their blob index; version 8 stored the busy column as raw i64s;
  // version 9 stored the device records unframed, after their count, and
  // checksummed them with the rest of the payload).
  for (const char old_version : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    std::string old = bytes;
    old[8] = old_version;
    try {
      (void)FleetSnapshot::from_bytes(old);
      ADD_FAILURE() << "version-" << int{old_version} << " blob was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }

  // Trailing garbage after the checksum is not silently ignored.
  EXPECT_THROW((void)FleetSnapshot::from_bytes(bytes + "x"),
               std::runtime_error);
}

void put_u64(std::string& blob, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) blob[at + i] = static_cast<char>(v >> (8 * i));
}

/// A blob's frame table as a forger reads it from the documented layout
/// (docs/FLEET.md), not through the codec: blob offsets of the table and of
/// the first frame, and each frame's declared length.
struct FrameLayout {
  std::size_t table = 0;
  std::size_t frames = 0;
  std::vector<std::uint64_t> lengths;
};

/// `blob`'s frame layout, or nullopt when its head does not parse (a forged
/// count the decoder refuses before it reaches any checksum).
std::optional<FrameLayout> frame_layout(const std::string& blob) {
  try {
    ByteReader r{std::string_view{blob}.substr(0, blob.size() - 8), kHeaderBytes};
    const auto skip = [&r](std::uint64_t n, std::size_t width) {
      if (n > r.remaining() / width) throw std::runtime_error("count past the end");
      (void)r.raw(static_cast<std::size_t>(n) * width);
    };
    skip(1, 8 + 4 + 8);  // spec digest, next slice, LUT builds
    skip(r.u64(), 48);   // the LUT keys
    for (int h = 0; h < 2; ++h) {  // the carried histograms
      skip(1, 16);                 // lo, hi
      skip(r.u64(), 8);            // the bins
      skip(1, 16);                 // underflow, overflow
    }
    for (std::uint64_t b = r.u64(); b > 0; --b) (void)r.blob();
    const std::uint64_t devices = r.u64();
    if (devices > r.remaining()) return std::nullopt;
    FrameLayout l;
    l.table = r.position();
    for (std::uint64_t f = 0; f < (devices + 255) / 256; ++f) {
      l.lengths.push_back(r.u64());
      (void)r.u64();  // its checksum
    }
    l.frames = r.position();
    return l;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// `blob` with its frame checksums and its trailing checksum recomputed, as
/// a deliberate forger would: only the walks can catch what it carries. A
/// frame whose declared length runs past the end keeps its checksum, as do
/// the frames after it.
std::string rechecksummed(std::string blob) {
  const std::optional<FrameLayout> l = frame_layout(blob);
  if (!l) return blob;
  std::size_t at = l->frames;
  for (std::size_t f = 0; f < l->lengths.size(); ++f) {
    if (l->lengths[f] > blob.size() - 8 - at) break;
    const auto length = static_cast<std::size_t>(l->lengths[f]);
    put_u64(blob, l->table + 16 * f + 8, checksum64(std::string_view{blob}.substr(at, length)));
    at += length;
  }
  put_u64(blob, blob.size() - 8,
          checksum64(std::string_view{blob}.substr(kHeaderBytes, l->frames - kHeaderBytes)));
  return blob;
}

/// `blob` with the u64 at `at` overwritten, re-checksummed.
std::string patched(std::string blob, std::size_t at, std::uint64_t v) {
  put_u64(blob, at, v);
  return rechecksummed(std::move(blob));
}

std::uint64_t u64_at(const std::string& blob, std::size_t at) {
  ByteReader r{std::string_view{blob}.substr(at)};
  return r.u64();
}

TEST(Snapshot, HugeDeclaredCountsThrowRuntimeError) {
  // A re-checksummed blob that declares more LUT keys, histogram bins,
  // processor blobs, devices or busy values, codes or spill values than its
  // bytes can hold must throw
  // std::runtime_error — not reserve the memory it names (std::bad_alloc)
  // or past max_size() (std::length_error).
  FleetSnapshot snap;
  snap.spec_digest = 7;
  snap.next_slice = 2;
  snap.lut_builds = 1;
  snap.lut_counted.resize(1);
  snap.devices.resize(2);
  snap.devices[0].started = true;
  for (const std::int64_t busy_ps : {10, 20, 30}) snap.devices[0].busy.push(busy_ps);
  snap.devices[0].proc_blob = std::make_shared<const std::string>("blob");
  const std::string bytes = snap.to_bytes();

  // Offsets of the counts: the LUT-key count follows spec digest, next
  // slice and build count; each key is 48 bytes; each carried histogram is
  // lo and hi (16 bytes), its bin count, 8 bytes per bin, then underflow
  // and overflow (16); the blob table's one blob is a u64 length and 4
  // bytes; the frame table's one entry (16 bytes) follows the device count;
  // device 0's busy-value count follows its flags (3 bytes), result
  // (2 + 117) and lane (2 + 21) fields and the samples tag (2), and its
  // three values (24 bytes) come before the code count, whose three codes
  // come before the spill count.
  const AggregateShape shape;
  const std::size_t key_count = kHeaderBytes + 8 + 4 + 8;
  const std::size_t busy_bins = key_count + 8 + 48 + 16;
  const std::size_t energy_bins = busy_bins + 8 + 8 * shape.busy_frac_bins + 16 + 16;
  const std::size_t blob_count = energy_bins + 8 + 8 * shape.slice_energy_bins + 16;
  const std::size_t blob_length = blob_count + 8;
  const std::size_t device_count = blob_length + 8 + 4;
  const std::size_t sample_count = device_count + 8 + 16 + 3 + 119 + 23 + 2;
  const std::size_t code_count = sample_count + 8 + 24;
  const std::size_t spill_count = code_count + 8 + 3;
  ASSERT_EQ(u64_at(bytes, key_count), 1u);
  ASSERT_EQ(u64_at(bytes, busy_bins), shape.busy_frac_bins);
  ASSERT_EQ(u64_at(bytes, energy_bins), shape.slice_energy_bins);
  ASSERT_EQ(u64_at(bytes, blob_count), 1u);
  ASSERT_EQ(u64_at(bytes, blob_length), 4u);
  ASSERT_EQ(u64_at(bytes, device_count), 2u);
  ASSERT_EQ(u64_at(bytes, sample_count), 3u);
  ASSERT_EQ(u64_at(bytes, code_count), 3u);
  ASSERT_EQ(u64_at(bytes, spill_count), 0u);
  EXPECT_EQ(FleetSnapshot::from_bytes(patched(bytes, sample_count, 3)).to_bytes(), bytes);

  // A histogram without bins, or whose counts sum past 2^64 - 1, is
  // malformed: std::runtime_error, not the Histogram's std::invalid_argument.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const std::string& forged :
       {patched(bytes, busy_bins, 0),
        patched(patched(bytes, busy_bins + 8, max), busy_bins + 16, 1)}) {
    try {
      (void)FleetSnapshot::from_bytes(forged);
      ADD_FAILURE() << "a malformed histogram was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("busy_frac"), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a malformed histogram threw a non-runtime_error: " << e.what();
    }
  }

  for (const std::size_t at :
       {key_count, busy_bins, energy_bins, blob_count, device_count, sample_count, code_count,
        spill_count}) {
    for (const std::uint64_t n :
         {std::uint64_t{1} << 40, std::numeric_limits<std::uint64_t>::max()}) {
      try {
        (void)FleetSnapshot::from_bytes(patched(bytes, at, n));
        ADD_FAILURE() << "count " << n << " at offset " << at << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("remain"), std::string::npos) << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "count " << n << " at offset " << at
                      << " threw a non-runtime_error: " << e.what();
      }
    }
  }
}

/// A re-checksummed snapshot with one device whose record is `record`,
/// followed by `pad` zero bytes (so a short record's count fits the bytes
/// left and the record walk, not the count check, meets it).
std::string forged_device(const std::string& record, std::size_t pad) {
  const std::string header = FleetSnapshot{}.to_bytes().substr(0, kHeaderBytes);
  ByteWriter w;
  w.raw(header);
  w.u64(0);  // spec digest
  w.u32(0);  // next slice
  w.u64(0);  // LUT builds
  w.u64(0);  // LUT keys
  for (int h = 0; h < 2; ++h) {  // the carried histograms: one empty bin each
    w.f64(0.0);  // lo
    w.f64(1.0);  // hi
    w.u64(1);    // bin count
    w.u64(0);    // the bin
    w.u64(0);    // underflow
    w.u64(0);    // overflow
  }
  w.u64(0);  // processor blobs
  w.u64(1);  // devices
  w.u64(record.size() + pad);  // the frame table: frame 0's length
  w.u64(0);                    // and its checksum, filled below
  w.raw(record);
  w.raw(std::string(pad, '\0'));
  w.u64(0);  // checksum, filled below
  return rechecksummed(w.take());
}

TEST(Snapshot, DeviceRecordsNeedTheirRequiredFields) {
  // A device record that is a bare end tag (6): the record walk refuses it.
  try {
    (void)FleetSnapshot::from_bytes(forged_device(std::string{"\x06\0", 2}, 256));
    ADD_FAILURE() << "a device record without fields was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("lacks"), std::string::npos) << e.what();
  }

  // Fields as the writer emits them, each its u16 tag and its body: the
  // required flags, result (117 bytes), lane (21 bytes) and an empty busy
  // column (three zero counts), the optional SLO and host sections, and the
  // end tag.
  using Field = std::function<void(ByteWriter&)>;
  const Field flags = [](ByteWriter& w) { w.u16(1); w.u8(1); };
  const Field result = [](ByteWriter& w) { w.u16(2); w.raw(std::string(117, '\0')); };
  const Field lane = [](ByteWriter& w) { w.u16(3); w.raw(std::string(21, '\0')); };
  const Field samples = [](ByteWriter& w) { w.u16(4); w.u64(0); w.u64(0); w.u64(0); };
  const Field slo = [](ByteWriter& w) { w.u16(7); w.i64(5); w.u32(1); w.u8(0); };
  const Field host = [](ByteWriter& w) { w.u16(8); w.u64(9); };
  const Field unknown = [](ByteWriter& w) { w.u16(10); w.u64(0); };
  const Field end = [](ByteWriter& w) { w.u16(6); };
  const auto record = [](const std::vector<Field>& fields) {
    ByteWriter w;
    for (const Field& f : fields) f(w);
    return w.take();
  };

  // In writer order the record decodes, and encodes back to its bytes.
  const std::string good =
      forged_device(record({flags, result, lane, samples, slo, host, end}), 0);
  const FleetSnapshot back = FleetSnapshot::from_bytes(good);
  ASSERT_EQ(back.devices.size(), 1u);
  EXPECT_EQ(back.devices[0].result.latency_slo_ps, 5);
  EXPECT_EQ(back.devices[0].result.host_cycles, 9u);
  EXPECT_EQ(back.to_bytes(), good);

  // Version 10 has one writer order: an unknown tag, a missing required
  // field, optional sections out of order and a section given twice are
  // each refused with the offset of the tag that does not belong. The short
  // record is padded so its count fits the bytes left.
  struct Forged {
    const char* what;
    std::vector<Field> fields;
    std::size_t pad;
  };
  const std::vector<Forged> forged = {
      {"an unknown tag", {flags, result, lane, samples, unknown, end}, 0},
      {"no lane", {flags, result, samples, end}, 256},
      {"sections out of order", {flags, result, lane, samples, host, slo, end}, 0},
      {"a section twice", {flags, result, lane, samples, host, host, end}, 0},
  };
  for (const Forged& f : forged) {
    try {
      (void)FleetSnapshot::from_bytes(forged_device(record(f.fields), f.pad));
      ADD_FAILURE() << "a device record with " << f.what << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << f.what << ": " << e.what();
    }
  }
}

/// `c`'s samples, in slice order.
std::vector<std::int64_t> samples_of(const BusyColumn& c) {
  std::vector<std::int64_t> out;
  out.reserve(c.size());
  c.for_each([&out](std::int64_t busy_ps) { out.push_back(busy_ps); });
  return out;
}

/// `c` without its last sample.
BusyColumn without_last(const BusyColumn& c) {
  std::vector<std::int64_t> samples = samples_of(c);
  samples.pop_back();
  BusyColumn out;
  for (const std::int64_t busy_ps : samples) out.push(busy_ps);
  return out;
}

TEST(Snapshot, BusyColumnSpillsPastItsDictionaryAndRoundTrips) {
  // 600 samples over 300 distinct values, met twice in one order: the first
  // 255 fill the dictionary and recur as their codes, and the other 45
  // spill each time they occur.
  std::vector<std::int64_t> raw;
  for (int i = 0; i < 600; ++i) raw.push_back(1'000'003LL * ((i * 7) % 300) + 17);
  FleetSnapshot snap;
  snap.devices.resize(1);
  DeviceProgress& p = snap.devices[0];
  p.started = true;
  p.done = true;
  p.result.slices_executed = static_cast<int>(raw.size());
  const std::size_t empty_bytes = snap.to_bytes().size();
  for (const std::int64_t busy_ps : raw) p.busy.push(busy_ps);
  ASSERT_EQ(p.busy.size(), raw.size());
  EXPECT_EQ(samples_of(p.busy), raw);

  // Stored as held: 8 bytes per dictionary value, one per slice, and 8 per
  // spilled sample.
  const std::string bytes = snap.to_bytes();
  EXPECT_EQ(bytes.size(), empty_bytes + 255 * 8 + raw.size() + 2 * 45 * 8);
  const FleetSnapshot back = FleetSnapshot::from_bytes(bytes);
  EXPECT_EQ(back.to_bytes(), bytes);
  EXPECT_EQ(samples_of(back.devices[0].busy), raw);

  // The decoded column feeds busy_us the same values in the same order:
  // bit-equal to feeding the raw samples.
  sim::Summary want;
  for (const std::int64_t busy_ps : raw) want.add(Time::ps(busy_ps).as_us());
  FleetAggregate fed;
  fed.add_busy(back.devices[0].busy);
  EXPECT_EQ(fed.busy_us.count(), want.count());
  EXPECT_EQ(fed.busy_us.mean(), want.mean());
  EXPECT_EQ(fed.busy_us.stddev(), want.stddev());
  EXPECT_EQ(fed.busy_us.min(), want.min());
  EXPECT_EQ(fed.busy_us.max(), want.max());
}

TEST(Snapshot, RefusesBusyColumnsPushCouldNotBuild) {
  // A done device whose busy column is forged part by part: the counted
  // values, the counted u8 codes and the counted spill values.
  const auto record = [](const std::vector<std::int64_t>& values,
                         const std::vector<std::uint8_t>& codes,
                         const std::vector<std::int64_t>& spill) {
    ByteWriter w;
    w.u16(1);  // flags: started, done
    w.u8(3);
    w.u16(2);  // result
    w.raw(std::string(117, '\0'));
    w.u16(3);  // lane
    w.raw(std::string(21, '\0'));
    w.u16(4);  // samples
    w.u64(values.size());
    w.i64s(values);
    w.u64(codes.size());
    w.raw({reinterpret_cast<const char*>(codes.data()), codes.size()});
    w.u64(spill.size());
    w.i64s(spill);
    w.u16(6);  // end
    return forged_device(w.take(), 0);
  };

  // A code of 255 takes the next spill value, even before the dictionary is
  // full; such a column decodes and encodes back to its bytes.
  const std::string good = record({5, 9}, {0, 1, 255, 0}, {11});
  const FleetSnapshot back = FleetSnapshot::from_bytes(good);
  EXPECT_EQ(samples_of(back.devices[0].busy), (std::vector<std::int64_t>{5, 9, 11, 5}));
  EXPECT_EQ(back.to_bytes(), good);

  std::vector<std::int64_t> many(256);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = static_cast<std::int64_t>(i);
  struct Forged {
    const char* what;
    std::string bytes;
    const char* says;
  };
  const std::vector<Forged> forged = {
      {"256 values", record(many, {}, {}), "more than 255"},
      {"a value twice", record({5, 9, 5}, {0, 1, 2}, {}), "twice"},
      {"a code past the values", record({5, 9}, {0, 2}, {}), "past its 2 values"},
      {"a spill value without its code", record({5}, {0}, {3}), "1 spill values for 0"},
      {"a spill code without its value", record({5}, {0, 255}, {}), "0 spill values for 1"},
  };
  for (const Forged& f : forged) {
    try {
      (void)FleetSnapshot::from_bytes(f.bytes);
      ADD_FAILURE() << "a busy column with " << f.what << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("busy column"), std::string::npos) << f.what << ": " << msg;
      EXPECT_NE(msg.find(f.says), std::string::npos) << f.what << ": " << msg;
    }
  }
}

TEST(Snapshot, PinnedBytesCoverEveryField) {
  // A hand-built snapshot that sets every field the format carries. Its
  // bytes are pinned, so a codec change that moves, drops or re-encodes a
  // field fails here even when the encoder and the decoder still agree.
  FleetSnapshot snap;
  snap.spec_digest = 0x0123456789abcdefULL;
  snap.next_slice = 17;
  snap.lut_builds = 3;
  snap.lut_counted = {{1, 2, 3, 4, 5, 6, 7}, {11, 12, 13, -14, 15, 16, 17}};
  snap.slice_bins.busy_frac = sim::Histogram::from_counts(0.0, 1.0, {1, 2, 3}, 4, 5);
  snap.slice_bins.slice_energy = sim::Histogram::from_counts(-1.0, 2.5, {6, 0}, 7, 8);
  snap.devices.resize(5);
  for (std::uint32_t i = 0; i < 5; ++i) snap.devices[i].result.id = i;
  const StateBlob shared = std::make_shared<const std::string>("shared processor state");

  // Device 0: live, with samples, an SLO lane, host cycles and cursor words.
  DeviceProgress& live = snap.devices[0];
  DeviceResult& r = live.result;
  live.started = true;
  r.model_index = 1;
  r.scenario = workload::Scenario::kPoisson;
  r.seed = 0xfeedULL;
  r.slice_ps = 1'000'000;
  r.slices_total = 40;
  r.slices_executed = 3;
  r.tasks = 21;
  r.tasks_dropped = 2;
  r.deadline_violations = 1;
  r.energy_pj = 1.25e9;
  r.battery_capacity_pj = 2.5e11;
  r.final_soc = 0.75;
  r.mode_switches = 2;
  r.low_power_slices = 1;
  r.busy_time_ps = 900;
  r.max_busy_ps = 400;
  r.movement_time_ps = 60;
  r.latency_slo_ps = 500;
  r.tier_switches = 4;
  r.host_cycles = 12345;
  live.next_k = 3;
  live.mode = 1;
  live.switches = 2;
  live.tier = 1;
  live.buffered = 5;
  live.charge_pj = 1.875e11;
  for (const std::int64_t busy_ps : {400, 300, 400}) live.busy.push(busy_ps);
  live.proc_blob = shared;
  live.loads = workload::LoadStream{{1, 2, 3, 4}};

  // Device 1 shares device 0's blob; device 2 holds a distinct one.
  snap.devices[1].started = true;
  snap.devices[1].busy.push(7);
  snap.devices[1].proc_blob = shared;
  snap.devices[2].started = true;
  snap.devices[2].proc_blob = std::make_shared<const std::string>("other state");
  // Device 3 is done (exhausted); device 4 has not started.
  snap.devices[3].started = true;
  snap.devices[3].done = true;
  snap.devices[3].result.slices_executed = 2;
  snap.devices[3].result.exhausted_at_slice = 1;

  const std::string bytes = snap.to_bytes();
  EXPECT_EQ(bytes.size(), 1315u);
  EXPECT_EQ(checksum64(bytes), 0xc19afcd362d45a22ULL);
  EXPECT_EQ(FleetSnapshot::from_bytes(bytes).to_bytes(), bytes);

  // The smallest records bound a declared device count from above: a
  // snapshot of only such records decodes.
  FleetSnapshot minimal;
  minimal.devices.resize(3);
  const std::string small = minimal.to_bytes();
  EXPECT_EQ(FleetSnapshot::from_bytes(small).to_bytes(), small);
}

TEST(Snapshot, IdenticalBlobsAreStoredOnce) {
  // Devices at one processor state share one blob: equal bytes are stored
  // once whether the devices share the allocation or hold equal copies, and
  // decode to one shared blob.
  const std::string a(200, 'a');
  const std::string b(200, 'b');
  FleetSnapshot snap;
  snap.devices.resize(4);
  const StateBlob shared = std::make_shared<const std::string>(a);
  snap.devices[0].proc_blob = shared;
  snap.devices[1].proc_blob = shared;
  snap.devices[2].proc_blob = std::make_shared<const std::string>(a);  // a copy
  snap.devices[3].proc_blob = std::make_shared<const std::string>(b);
  for (DeviceProgress& p : snap.devices) p.started = true;
  const std::string bytes = snap.to_bytes();
  const auto occurrences = [&bytes](const std::string& needle) {
    int n = 0;
    for (std::size_t at = bytes.find(needle); at != std::string::npos;
         at = bytes.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences(a), 1);
  EXPECT_EQ(occurrences(b), 1);

  const FleetSnapshot back = FleetSnapshot::from_bytes(bytes);
  ASSERT_EQ(back.devices.size(), 4u);
  EXPECT_EQ(back.devices[0].proc_blob.get(), back.devices[1].proc_blob.get());
  EXPECT_EQ(back.devices[0].proc_blob.get(), back.devices[2].proc_blob.get());
  EXPECT_NE(back.devices[0].proc_blob.get(), back.devices[3].proc_blob.get());
  EXPECT_EQ(*back.devices[0].proc_blob, a);
  EXPECT_EQ(*back.devices[3].proc_blob, b);
  EXPECT_EQ(back.to_bytes(), bytes);
}

TEST(Snapshot, OutOfRangeBlobIndexThrowsRuntimeError) {
  // A re-checksummed snapshot whose device points past the blob table is
  // refused at decode time.
  FleetSnapshot snap;
  snap.devices.resize(1);
  snap.devices[0].started = true;
  snap.devices[0].proc_blob = std::make_shared<const std::string>("blob");
  const std::string bytes = snap.to_bytes();
  // The record ends with the proc field (u16 tag 5, u32 index) and the
  // u16 end tag, then the stream's u64 checksum.
  const std::size_t index_at = bytes.size() - 8 - 2 - 4;
  ASSERT_EQ(bytes.compare(index_at - 2, 2, std::string{"\x05\0", 2}), 0);  // kTagProc
  ASSERT_EQ(bytes.compare(index_at, 4, std::string(4, '\0')), 0);          // index 0
  for (const std::uint32_t bad : {1u, 0xfffffffeu, 0xffffffffu}) {
    std::string tampered = bytes;
    for (int i = 0; i < 4; ++i) tampered[index_at + i] = static_cast<char>(bad >> (8 * i));
    try {
      (void)FleetSnapshot::from_bytes(rechecksummed(tampered));
      ADD_FAILURE() << "blob index " << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
}

/// A hand-built snapshot of `n` devices whose records differ in size and
/// sections: unjoined, live (on one of three shared blobs or a blob of its
/// own, some with SLO, host and cursor sections) and done devices, with
/// busy columns of 0 to 6 samples.
FleetSnapshot varied_snapshot(std::size_t n) {
  FleetSnapshot snap;
  snap.spec_digest = 0x5eed;
  snap.next_slice = 9;
  const std::vector<StateBlob> shared = {
      std::make_shared<const std::string>("state a"),
      std::make_shared<const std::string>("state b"),
      std::make_shared<const std::string>(std::string(300, 'c'))};
  snap.devices.resize(n);
  for (std::size_t d = 0; d < n; ++d) {
    DeviceProgress& p = snap.devices[d];
    p.result.id = static_cast<std::uint32_t>(d);
    p.result.seed = 0x9e3779b97f4a7c15ULL * (d + 1);
    if (d % 5 == 0) continue;  // not yet joined
    p.started = true;
    for (std::size_t k = 0; k < d % 7; ++k) p.busy.push(static_cast<std::int64_t>(100 * (k % 3)));
    p.next_k = static_cast<int>(d % 7);
    p.result.energy_pj = 1.5 * static_cast<double>(d);
    if (d % 5 == 4) {
      p.done = true;
      continue;
    }
    p.proc_blob = d % 11 == 0 ? std::make_shared<const std::string>("own " + std::to_string(d))
                              : shared[d % 3];
    if (d % 3 == 1) {
      p.result.latency_slo_ps = 1000;
      p.tier = 0;
    }
    if (d % 4 == 2) p.result.host_cycles = d;
    if (d % 6 == 1) p.loads = workload::LoadStream{{d, 2, 3, 4}};
  }
  return snap;
}

/// `snap` encoded on `threads` threads.
std::string encoded(FleetSnapshot snap, unsigned threads) {
  snap.threads = threads;
  return snap.to_bytes();
}

TEST(Snapshot, FramesEncodeAlikeAtAnyThreadCount) {
  // Frames hold 256 devices whatever the thread count: around each frame
  // boundary the bytes are the same on 1 to 8 threads, and decoding on 1 or
  // 8 threads gives back the same snapshot.
  for (const std::size_t n : {0, 1, 255, 256, 257, 513}) {
    const FleetSnapshot snap = varied_snapshot(n);
    const std::string bytes = encoded(snap, 1);
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
      EXPECT_EQ(encoded(snap, threads), bytes) << n << " devices, " << threads << " threads";
    }
    const std::optional<FrameLayout> layout = frame_layout(bytes);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->lengths.size(), (n + 255) / 256) << n << " devices";
    std::uint64_t framed = 0;
    for (const std::uint64_t length : layout->lengths) framed += length;
    EXPECT_EQ(layout->frames + framed + 8, bytes.size()) << n << " devices";

    const FleetSnapshot one = FleetSnapshot::from_bytes(bytes, 1);
    const FleetSnapshot eight = FleetSnapshot::from_bytes(bytes, 8);
    EXPECT_EQ(one.threads, 1u);
    EXPECT_EQ(eight.threads, 8u);
    EXPECT_EQ(encoded(one, 1), bytes) << n << " devices";
    EXPECT_EQ(encoded(eight, 1), bytes) << n << " devices";
    ASSERT_EQ(eight.devices.size(), n);
    for (std::size_t d = 0; d < n; ++d) {
      const DeviceProgress& want = snap.devices[d];
      const DeviceProgress& got = eight.devices[d];
      EXPECT_EQ(got.result.id, want.result.id);
      EXPECT_EQ(got.busy.size(), want.busy.size());
      EXPECT_EQ(got.proc_blob == nullptr, want.proc_blob == nullptr);
      if (want.proc_blob != nullptr) {
        EXPECT_EQ(*got.proc_blob, *want.proc_blob) << d;
      }
    }
    // Devices sharing a blob share it decoded, across frames too.
    if (n > 256) {
      EXPECT_EQ(eight.devices[1].proc_blob.get(), eight.devices[256].proc_blob.get());
    }
  }
}

/// The runtime_error from_bytes throws for `blob` at `threads` threads.
std::string refusal(const std::string& blob, unsigned threads) {
  try {
    (void)FleetSnapshot::from_bytes(blob, threads);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Snapshot, RefusesForgedFrameTables) {
  // Three frames (256, 256 and 88 devices), forged through a recomputed
  // frame table: each refusal names payload offsets (blob offsets less the
  // 12 header bytes), at any thread count.
  const std::string bytes = encoded(varied_snapshot(600), 4);
  const FrameLayout l = *frame_layout(bytes);
  ASSERT_EQ(l.lengths.size(), 3u);
  std::vector<std::size_t> start = {l.frames - kHeaderBytes};  // payload offsets
  for (const std::uint64_t length : l.lengths) start.push_back(start.back() + length);
  const std::size_t payload = bytes.size() - kHeaderBytes - 8;
  ASSERT_EQ(start.back(), payload);
  const auto length_at = [&l](std::size_t f) { return l.table + 16 * f; };

  struct Forged {
    const char* what;
    std::string bytes;
    std::string says;
  };
  const std::vector<Forged> forged = {
      {"a length past the end", patched(bytes, length_at(1), payload),
       "frame 1 at offset " + std::to_string(start[1]) + " declares " +
           std::to_string(payload) + " bytes, but only " +
           std::to_string(payload - start[1]) + " bytes remain"},
      {"lengths short of the payload", patched(bytes, length_at(2), l.lengths[2] - 8),
       "the frames end at offset " + std::to_string(payload - 8) +
           ", but the payload holds " + std::to_string(payload) + " bytes"},
      {"lengths past the payload", patched(bytes, length_at(2), l.lengths[2] + 8),
       "frame 2 at offset " + std::to_string(start[2])},
      // Two bytes moved from frame 1 to frame 0: frame 0's records end two
      // bytes short of its end (and frame 1 starts mid-record).
      {"records that end early",
       patched(patched(bytes, length_at(0), l.lengths[0] + 2), length_at(1), l.lengths[1] - 2),
       "the device records of frame 0 end at offset " + std::to_string(start[1]) +
           ", short of the frame's end at offset " + std::to_string(start[1] + 2)},
      // Two bytes moved from frame 0 to frame 1: frame 0's last end tag
      // runs past its end.
      {"records that run late",
       patched(patched(bytes, length_at(0), l.lengths[0] - 2), length_at(1), l.lengths[1] + 2),
       "need 2 bytes at offset " + std::to_string(start[1] - 2) + ", have 0"},
  };
  for (const Forged& f : forged) {
    for (const unsigned threads : {1u, 4u}) {
      const std::string msg = refusal(f.bytes, threads);
      EXPECT_NE(msg.find(f.says), std::string::npos)
          << f.what << " at " << threads << " threads: " << msg;
    }
  }
}

TEST(Snapshot, ReportsTheLowestCorruptFrame) {
  // Frames 1 and 2 each fail their checksum; frame 1 is reported at every
  // thread count. A damaged head wins over both.
  const std::string bytes = encoded(varied_snapshot(600), 4);
  const FrameLayout l = *frame_layout(bytes);
  ASSERT_EQ(l.lengths.size(), 3u);
  const std::size_t frame1 = l.frames + l.lengths[0];
  const std::size_t frame2 = frame1 + l.lengths[1];
  std::string damaged = bytes;
  damaged[frame1 + 5] = static_cast<char>(damaged[frame1 + 5] ^ 0x10);
  damaged[frame2 + 7] = static_cast<char>(damaged[frame2 + 7] ^ 0x01);
  const std::string says =
      "checksum mismatch in frame 1 at offset " + std::to_string(frame1 - kHeaderBytes);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    for (int rep = 0; rep < 10; ++rep) {
      const std::string msg = refusal(damaged, threads);
      EXPECT_NE(msg.find(says), std::string::npos) << threads << " threads: " << msg;
    }
  }
  damaged[kHeaderBytes] = static_cast<char>(damaged[kHeaderBytes] ^ 0x01);  // the spec digest
  for (const unsigned threads : {1u, 8u}) {
    const std::string msg = refusal(damaged, threads);
    EXPECT_NE(msg.find("checksum mismatch (corrupted"), std::string::npos) << msg;
  }
}

TEST(Snapshot, ResumeRejectsDevicesThatDoNotMatchTheSpec) {
  // The checksum is recomputable, so a blob re-encoded after tampering
  // decodes cleanly; run_to/resume must still refuse a device whose identity
  // differs from its re-expanded spec (the JSONL writer indexes the model
  // table with model_index) or whose lane is out of range.
  const FleetSpec spec = small_fleet(6, 6);
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetSnapshot good = sim.run_to(spec, 3);
  const std::vector<void (*)(DeviceProgress&)> tampers = {
      [](DeviceProgress& p) { p.result.model_index = 100000; },
      [](DeviceProgress& p) { p.result.id ^= 1; },
      [](DeviceProgress& p) { p.result.seed ^= 1; },
      [](DeviceProgress& p) {
        p.result.scenario = p.result.scenario == workload::Scenario::kRandom
                                ? workload::Scenario::kPulsing
                                : workload::Scenario::kRandom;
      },
      [](DeviceProgress& p) { p.mode = 7; },
      [](DeviceProgress& p) { p.tier = 3; },
  };
  for (std::size_t t = 0; t < tampers.size(); ++t) {
    FleetSnapshot snap = good;
    tampers[t](snap.devices[0]);
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    EXPECT_THROW((void)sim.resume(spec, snap), std::runtime_error) << "tamper " << t;
    EXPECT_THROW((void)sim.run_to(spec, 4, &snap), std::runtime_error)
        << "tamper " << t;
  }
  EXPECT_NO_THROW((void)sim.resume(spec, good));

  // A forged step: a live device must stand at the snapshot's slice (its
  // load cursor is rebuilt there), and no device's step may leave
  // [0, slices_total] — a negative one used to index the load trace out of
  // bounds. A live randomized device must also carry its cursor's words.
  // Each is refused naming the device.
  std::size_t live = good.devices.size();
  std::size_t done = good.devices.size();
  for (std::size_t d = 0; d < good.devices.size(); ++d) {
    const DeviceProgress& p = good.devices[d];
    if (p.started && !p.done && live == good.devices.size() &&
        workload::LoadStream::randomized(p.result.scenario)) {
      live = d;
    }
    if (p.done && done == good.devices.size()) done = d;
  }
  ASSERT_LT(live, good.devices.size());
  ASSERT_LT(done, good.devices.size());
  const std::vector<std::pair<std::size_t, void (*)(DeviceProgress&)>> steps = {
      {live, [](DeviceProgress& p) { p.next_k += 1; }},
      {live, [](DeviceProgress& p) { p.next_k -= 1; }},
      {live, [](DeviceProgress& p) { p.next_k = -3; }},
      {live, [](DeviceProgress& p) { p.next_k = p.result.slices_total; }},
      {live, [](DeviceProgress& p) { p.loads = workload::LoadStream{}; }},
      {done, [](DeviceProgress& p) { p.next_k = -1; }},
      {done, [](DeviceProgress& p) { p.next_k = p.result.slices_total + 1; }},
  };
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const auto& [device, tamper] = steps[t];
    FleetSnapshot snap = good;
    tamper(snap.devices[device]);
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    for (const bool final_segment : {true, false}) {
      try {
        if (final_segment) {
          (void)sim.resume(spec, snap);
        } else {
          (void)sim.run_to(spec, 4, &snap);
        }
        ADD_FAILURE() << "step tamper " << t << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("device " + std::to_string(device)),
                  std::string::npos)
            << e.what();
      }
    }
  }

  // Busy samples and carried histograms: a device's busy column holds one
  // sample per executed slice (a longer or shorter one used to resume and
  // shift busy_us), and each carried histogram has the spec's shape and one
  // sample per slice executed fleet-wide. Each is refused naming the device
  // or the histogram.
  const std::string live_name = "device " + std::to_string(live);
  const std::string done_name = "device " + std::to_string(done);
  const std::vector<std::pair<std::string, std::function<void(FleetSnapshot&)>>>
      counts = {
          {live_name, [live](FleetSnapshot& s) { s.devices[live].busy.push(1); }},
          {live_name,
           [live](FleetSnapshot& s) { s.devices[live].busy = without_last(s.devices[live].busy); }},
          {done_name, [done](FleetSnapshot& s) { s.devices[done].busy.push(1); }},
          {done_name, [done](FleetSnapshot& s) { s.devices[done].busy.clear(); }},
          {"busy_frac", [](FleetSnapshot& s) { s.slice_bins.busy_frac.add(0.5); }},
          {"busy_frac", [](FleetSnapshot& s) { s.slice_bins.busy_frac.reset(); }},
          {"slice_energy", [](FleetSnapshot& s) { s.slice_bins.slice_energy.add(1.0); }},
          {"busy_frac",
           [](FleetSnapshot& s) { s.slice_bins.busy_frac = sim::Histogram{0.0, 2.0, 100}; }},
          {"slice_energy",
           [](FleetSnapshot& s) {
             const sim::Histogram& h = s.slice_bins.slice_energy;
             s.slice_bins.slice_energy = sim::Histogram::from_counts(
                 h.lo(), h.hi() + 1.0, h.bins(), h.underflow(), h.overflow());
           }},
      };
  for (std::size_t t = 0; t < counts.size(); ++t) {
    const auto& [name, tamper] = counts[t];
    FleetSnapshot snap = good;
    tamper(snap);
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    for (const bool final_segment : {true, false}) {
      try {
        if (final_segment) {
          (void)sim.resume(spec, snap);
        } else {
          (void)sim.run_to(spec, 4, &snap);
        }
        ADD_FAILURE() << "count tamper " << t << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
  }

  // A forged next_slice: the field is a u32 on disk, so 2^31 and above
  // decode as negative. With every device not yet started nothing else
  // vouches for the slice, and run_to used to accept end_slice 0 from a
  // negative start. A snapshot stands at a slice in [0, slices]; 0 is the
  // initial snapshot (the differential oracle resumes one at cut 0).
  FleetSnapshot unstarted = good;
  for (DeviceProgress& p : unstarted.devices) p = DeviceProgress{};
  unstarted.slice_bins = SliceHistograms{spec.histograms};
  const std::vector<std::pair<int, int>> forged_starts = {
      {-1, 0}, {-5, 0}, {std::numeric_limits<int>::min(), 0}};
  for (const auto& [next_slice, end_slice] : forged_starts) {
    FleetSnapshot snap = unstarted;
    snap.next_slice = next_slice;
    snap = FleetSnapshot::from_bytes(snap.to_bytes());
    ASSERT_EQ(snap.next_slice, next_slice);
    const std::string name = "next_slice " + std::to_string(next_slice);
    for (const bool final_segment : {true, false}) {
      try {
        if (final_segment) {
          (void)sim.resume(spec, snap);
        } else {
          (void)sim.run_to(spec, end_slice, &snap);
        }
        ADD_FAILURE() << name << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
  }
}

// --- slice histograms ---------------------------------------------------------

TEST(SliceBins, EveryExecutedSliceIsBinnedOnce) {
  // Each slice is binned where it runs — on the memo-hit path, the exact
  // path and in Device::run — and a snapshot carries the bins of the slices
  // before its cut. Whatever the path, the summary's busy_frac.samples,
  // slice_energy_mj.samples and busy_us.count each equal executed_slices
  // (counted from the device results, not from the bins): a slice binned
  // twice or never would show. Churn, charging and a battery that most
  // devices exhaust; one-shot, every-slice and 7-cut runs at 1 and 4
  // threads, memo on and off.
  FleetSpec spec = small_fleet(40, 14);
  spec.lifecycle.join_fraction = 0.3;
  spec.lifecycle.leave_fraction = 0.3;
  spec.charging = {.period = 5, .window = 1, .energy_per_slice = Energy::mj(1.0)};

  const auto expect_binned_once = [](const FleetAggregate& a, const std::string& where) {
    EXPECT_GT(a.executed_slices, 0u) << where;
    EXPECT_EQ(a.slice_bins.busy_frac.total(), a.executed_slices) << where;
    EXPECT_EQ(a.slice_bins.slice_energy.total(), a.executed_slices) << where;
    EXPECT_EQ(a.busy_us.count(), a.executed_slices) << where;
  };

  placement::LutCache lut;
  FleetAggregate alone{spec.histograms};
  for (const DeviceSpec& ds : spec.expand()) {
    Device dev{spec, ds, spec.models[ds.model_index], &lut};
    (void)dev.run(&alone);
  }
  expect_binned_once(alone, "Device::run");
  EXPECT_GT(alone.exhausted_devices, 0u);
  EXPECT_LT(alone.executed_slices,
            static_cast<std::uint64_t>(spec.devices) * static_cast<std::uint64_t>(spec.slices));

  std::vector<int> every_slice;
  for (int cut = 1; cut < spec.slices; ++cut) every_slice.push_back(cut);
  const std::vector<std::vector<int>> splits = {
      {}, every_slice, {1, 3, 5, 7, 9, 11, 13}};
  for (const unsigned threads : {1u, 4u}) {
    for (const bool memo : {false, true}) {
      for (const std::vector<int>& cuts : splits) {
        const std::string where = "threads=" + std::to_string(threads) +
                                  " memo=" + std::to_string(memo) +
                                  " cuts=" + std::to_string(cuts.size());
        placement::LutCache fresh;
        OutcomeCache outcome;
        const FleetSimulator sim{base_options(threads, memo, &fresh, &outcome)};
        FleetSnapshot snap;
        for (std::size_t c = 0; c < cuts.size(); ++c) {
          snap = FleetSnapshot::from_bytes(
              sim.run_to(spec, cuts[c], c == 0 ? nullptr : &snap).to_bytes());
          std::uint64_t executed = 0;
          for (const DeviceProgress& p : snap.devices) {
            executed += static_cast<std::uint64_t>(p.result.slices_executed);
          }
          EXPECT_EQ(snap.slice_bins.busy_frac.total(), executed) << where;
          EXPECT_EQ(snap.slice_bins.slice_energy.total(), executed) << where;
        }
        const FleetResult r = cuts.empty() ? sim.run(spec) : sim.resume(spec, snap);
        expect_binned_once(r.aggregate, where);
        EXPECT_EQ(r.aggregate.executed_slices, alone.executed_slices) << where;
      }
    }
  }
}

// --- load cursors -------------------------------------------------------------

TEST(LoadCursor, ExhaustionAcrossThePhaseWrapMatchesEverywhere) {
  // Every generator shape, churn and an envelope, and a battery that dies
  // mid-trace: some devices exhaust after their rotated trace wrapped (the
  // cursor reseeded, and a checkpoint after the wrap stored its words), and
  // some before it with a dropped tail that crosses the wrap (the tail sum
  // drains a copy of the cursor through the reseed). Device::run, one-shot
  // runs and runs checkpointed at every slice through to_bytes/from_bytes
  // must agree on every byte, at 1 and 4 threads, memo on and off.
  FleetSpec spec = small_fleet(48, 12);
  spec.mix.clear();
  for (const workload::Scenario s : workload::all_scenarios()) spec.mix.push_back(s);
  for (const workload::Scenario s : workload::extended_scenarios()) {
    if (s != workload::Scenario::kTrace) spec.mix.push_back(s);
  }
  spec.battery.capacity = Energy::mj(kWrapCapacityMj);
  spec.envelope.enabled = true;
  spec.envelope.shape = workload::Scenario::kRandom;
  spec.envelope.min_multiplier = 0.5;
  spec.envelope.max_multiplier = 1.5;
  spec.lifecycle.join_fraction = 0.25;
  spec.lifecycle.leave_fraction = 0.25;

  // The reference: every device alone on its own processor. Its dropped
  // arrivals are the materialized trace's tail from the exhaustion step on
  // (an early leaver that never exhausts drops its final buffer).
  const std::vector<DeviceSpec> devices = spec.expand();
  const std::vector<double> env = spec.envelope_multipliers();
  placement::LutCache lut;
  FleetResult alone;
  alone.shard_size = 7;
  for (const nn::Model& m : spec.models) alone.model_names.push_back(m.name());
  int after_wrap = 0;
  int tail_across_wrap = 0;
  std::uint64_t dropped = 0;
  std::vector<int> loads;
  std::vector<DeviceResult> results;
  for (const DeviceSpec& ds : devices) {
    Device dev{spec, ds, spec.models[ds.model_index], &lut};
    results.push_back(dev.run(nullptr));
    const DeviceResult& r = results.back();
    device_loads_into(ds, env, loads);
    std::uint64_t tail = 0;
    if (r.exhausted_at_slice >= 0) {
      for (std::size_t k = static_cast<std::size_t>(r.exhausted_at_slice); k < loads.size(); ++k) {
        tail += static_cast<std::uint64_t>(loads[k]);
      }
    } else if (ds.leave_slice < spec.slices) {
      tail = static_cast<std::uint64_t>(loads.back());
    }
    EXPECT_EQ(r.tasks_dropped, tail) << "device " << ds.id;
    dropped += r.tasks_dropped;
    const int n = ds.cfg.slices;
    const int wrap = n - ds.phase % n;  // the step whose arrival is trace index 0
    if (r.exhausted_at_slice < 0 || wrap == n) continue;
    if (r.exhausted_at_slice >= wrap) ++after_wrap;
    if (r.exhausted_at_slice < wrap - 1) ++tail_across_wrap;
  }
  EXPECT_GE(after_wrap, 3);
  EXPECT_GE(tail_across_wrap, 3);
  EXPECT_GT(dropped, 0u);
  alone.devices = DeviceResults{results};
  const std::string want = alone.to_jsonl();

  std::vector<int> every_slice;
  for (int cut = 1; cut < spec.slices; ++cut) every_slice.push_back(cut);
  std::string summary;
  for (const unsigned threads : {1u, 4u}) {
    for (const bool memo : {false, true}) {
      const std::string where =
          "threads=" + std::to_string(threads) + " memo=" + std::to_string(memo);
      placement::LutCache fresh;
      OutcomeCache outcome;
      const FleetResult whole =
          FleetSimulator{base_options(threads, memo, &fresh, &outcome)}.run(spec);
      EXPECT_EQ(whole.aggregate.tasks_dropped, dropped) << where;
      EXPECT_EQ(whole.to_jsonl(), want) << where;
      if (summary.empty()) summary = whole.summary_to_json();
      EXPECT_EQ(whole.summary_to_json(), summary) << where;
      const RunOutput seg = run_segmented(spec, every_slice, threads, memo);
      EXPECT_EQ(seg.jsonl, want) << where << " segmented";
      EXPECT_EQ(seg.summary, summary) << where << " segmented";
    }
  }
}

// --- lifecycle / envelope / charging semantics -------------------------------

TEST(Lifecycle, JoinStartsAtSpecifiedPhase) {
  FleetSpec spec = small_fleet(4, 10);
  spec.battery.capacity = Energy::mj(1e6);  // nobody exhausts
  spec.lifecycle_overrides.push_back({.id = 1, .join_slice = 4,
                                      .leave_slice = -1});
  const std::vector<DeviceSpec> devices = spec.expand();
  ASSERT_EQ(devices.size(), 4u);
  EXPECT_EQ(devices[1].join_slice, 4);
  EXPECT_EQ(devices[1].leave_slice, 10);
  EXPECT_EQ(devices[1].cfg.slices, 6);  // its trace covers [join, leave)
  EXPECT_EQ(devices[0].join_slice, 0);

  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(spec);
  ASSERT_EQ(r.devices.size(), 4u);
  // The joiner runs its 6 arrival slices + the drain slice; a full-term
  // device runs 10 + 1.
  EXPECT_EQ(r.devices[1].slices_total, 7);
  EXPECT_EQ(r.devices[1].slices_executed, 7);
  EXPECT_EQ(r.devices[0].slices_total, 11);
}

TEST(Lifecycle, LeaveDropsFinalBufferLikeExhaustion) {
  FleetSpec spec = small_fleet(4, 10);
  spec.battery.capacity = Energy::mj(1e6);
  spec.lifecycle_overrides.push_back({.id = 2, .join_slice = 0,
                                      .leave_slice = 6});
  const std::vector<DeviceSpec> devices = spec.expand();
  EXPECT_EQ(devices[2].cfg.slices, 6);

  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(spec);
  const DeviceResult& leaver = r.devices[2];
  // No drain slice: 6 arrival slices only, and the arrivals of slice 5 —
  // buffered for a slice 6 that never runs — count as dropped, exactly the
  // accounting exhaustion uses for never-executed arrivals.
  EXPECT_EQ(leaver.slices_total, 6);
  EXPECT_EQ(leaver.slices_executed, 6);
  EXPECT_EQ(leaver.exhausted_at_slice, -1);
  std::vector<int> loads;
  device_loads_into(devices[2], spec.envelope_multipliers(), loads);
  std::uint64_t arrivals = 0;
  for (const int l : loads) arrivals += static_cast<std::uint64_t>(l);
  EXPECT_EQ(leaver.tasks + leaver.tasks_dropped, arrivals);
  EXPECT_EQ(leaver.tasks_dropped, static_cast<std::uint64_t>(loads.back()));
}

TEST(Lifecycle, ChargingRefillsRespectBatteryClamp) {
  FleetSpec base = small_fleet(6, 12);
  base.battery.capacity = Energy::mj(10.0);

  // Absurdly large refills every slice: the clamp holds SoC at or below 1.0
  // and no device exhausts. Capacity must cover the worst *single* slice —
  // a full-at-every-boundary battery still dies if one slice costs more
  // than the whole pack.
  FleetSpec charged = base;
  charged.battery.capacity = Energy::mj(60.0);
  charged.charging = {.period = 1, .window = 1,
                      .energy_per_slice = Energy::mj(1e6)};
  placement::LutCache lut;
  const FleetSimulator sim{base_options(1, false, &lut, nullptr)};
  const FleetResult r = sim.run(charged);
  for (const DeviceResult& d : r.devices) {
    EXPECT_LE(d.final_soc, 1.0);
    EXPECT_EQ(d.exhausted_at_slice, -1);
    EXPECT_EQ(d.slices_executed, d.slices_total);
  }

  // A zero-energy window and a zero-width window are both exact no-ops.
  FleetSpec zero_energy = base;
  zero_energy.charging = {.period = 3, .window = 2,
                          .energy_per_slice = Energy::zero()};
  FleetSpec zero_window = base;
  zero_window.charging = {.period = 3, .window = 0,
                          .energy_per_slice = Energy::mj(5.0)};
  const RunOutput plain = run_whole(base, 1, false);
  EXPECT_EQ(run_whole(zero_energy, 1, false).jsonl, plain.jsonl);
  EXPECT_EQ(run_whole(zero_window, 1, false).jsonl, plain.jsonl);

  // And a real refill strictly helps: fewer exhausted devices, never more.
  FleetSpec real = base;
  real.charging = {.period = 2, .window = 1,
                   .energy_per_slice = Energy::mj(4.0)};
  const FleetResult plain_r = sim.run(base);
  const FleetResult real_r = sim.run(real);
  int plain_exhausted = 0;
  int real_exhausted = 0;
  for (const DeviceResult& d : plain_r.devices) {
    plain_exhausted += d.exhausted_at_slice >= 0 ? 1 : 0;
  }
  for (const DeviceResult& d : real_r.devices) {
    real_exhausted += d.exhausted_at_slice >= 0 ? 1 : 0;
  }
  EXPECT_LE(real_exhausted, plain_exhausted);
}

TEST(Envelope, UnityMultiplierIsByteIdenticalRegressionPin) {
  // envelope.enabled with min == max == 1.0 must reproduce the un-enveloped
  // output byte-for-byte — the pin that keeps the envelope path from
  // perturbing existing fleets.
  const FleetSpec plain = small_fleet(24, 10);
  FleetSpec unity = plain;
  unity.envelope.enabled = true;
  unity.envelope.min_multiplier = 1.0;
  unity.envelope.max_multiplier = 1.0;
  const RunOutput a = run_whole(plain, 8, true);
  const RunOutput b = run_whole(unity, 8, true);
  EXPECT_EQ(b.jsonl, a.jsonl);
  EXPECT_EQ(b.summary, a.summary);
}

TEST(Envelope, DefaultExpansionUnchangedByFeatureGates) {
  // A spec using none of the new features must expand exactly as before the
  // lifecycle/firmware draws existed: all devices full-term on firmware 0.
  const FleetSpec spec = small_fleet(32, 10);
  for (const DeviceSpec& d : spec.expand()) {
    EXPECT_EQ(d.join_slice, 0);
    EXPECT_EQ(d.leave_slice, 10);
    EXPECT_EQ(d.firmware_index, 0u);
    EXPECT_EQ(d.cfg.slices, 10);
  }
}

TEST(Envelope, RejectsMalformedSpecs) {
  FleetSpec bad = small_fleet(4, 6);
  bad.envelope.enabled = true;
  bad.envelope.min_multiplier = 2.0;
  bad.envelope.max_multiplier = 1.0;  // min > max
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  FleetSpec frac = small_fleet(4, 6);
  frac.lifecycle.join_fraction = 1.5;
  EXPECT_THROW(frac.validate(), std::invalid_argument);

  FleetSpec over = small_fleet(4, 6);
  over.lifecycle_overrides.push_back({.id = 9, .join_slice = 0,
                                      .leave_slice = -1});  // id out of range
  EXPECT_THROW(over.validate(), std::invalid_argument);

  FleetSpec window = small_fleet(4, 6);
  window.lifecycle_overrides.push_back({.id = 0, .join_slice = 4,
                                        .leave_slice = 2});  // leave <= join
  EXPECT_THROW(window.validate(), std::invalid_argument);

  FleetSpec charge = small_fleet(4, 6);
  charge.charging = {.period = 2, .window = 3,
                     .energy_per_slice = Energy::zero()};  // window > period
  EXPECT_THROW(charge.validate(), std::invalid_argument);
}

TEST(Firmware, LutAccountingCountsOnlyMissingHhpimKeys) {
  // Two HH-PIM firmwares, one static-arch firmware (which never resolves
  // through the LUT cache), two models, and a cache pre-warmed with one of
  // the four HH-PIM keys: run() and run_to + resume, at 1 and 4 threads,
  // must all count exactly the three missing keys as builds and agree on
  // lut_shared. Pins three properties of drive():
  //   * the accounting walk stops only once every pair is marked — the
  //     seed puts a cold pair's first device last in id order;
  //   * that pair's devices join after the first cut, so it is first active
  //     in a later segment and counted there, in first-active order;
  //   * lut_shared counts every HH-PIM device, including one that finished
  //     before the final segment.
  FleetSpec spec = small_fleet(24, 8);
  spec.seed = 12;  // the last first-seen pair is a cold HH-PIM one
  spec.adapt = false;  // static archs cannot adapt
  spec.models = {nn::zoo::efficientnet_b0(), nn::zoo::mobilenet_v2()};
  sys::SystemConfig fw_static = spec.config;
  fw_static.arch = sys::ArchConfig::hybrid();
  sys::SystemConfig fw_knobs = spec.config;
  fw_knobs.lut_t_entries = 24;  // a distinct LUT key per model
  spec.firmware = {spec.config, fw_static, fw_knobs};
  constexpr std::size_t kStatic = 1;
  const std::size_t n_models = spec.models.size();
  const auto pair_of = [&](const DeviceSpec& ds) {
    return ds.firmware_index * n_models + ds.model_index;
  };

  // The pair whose first device comes last: it becomes the late pair.
  std::vector<DeviceSpec> devices = spec.expand();
  std::map<std::size_t, std::uint32_t> first_of_pair;
  for (const DeviceSpec& ds : devices) first_of_pair.emplace(pair_of(ds), ds.id);
  ASSERT_EQ(first_of_pair.size(), spec.firmware.size() * n_models);
  std::size_t late = 0;
  for (const auto& [pair, id] : first_of_pair) {
    if (id > first_of_pair[late]) late = pair;
  }
  ASSERT_NE(late / n_models, kStatic);
  ASSERT_NE(late, 0u);  // the pre-warmed pair
  for (const DeviceSpec& ds : devices) {
    if (pair_of(ds) == late) {
      spec.lifecycle_overrides.push_back({.id = ds.id, .join_slice = 5, .leave_slice = -1});
    }
  }
  // An HH-PIM device that is not its pair's first leaves before the cut.
  for (const DeviceSpec& ds : devices) {
    if (ds.firmware_index == 0 && first_of_pair[pair_of(ds)] != ds.id) {
      spec.lifecycle_overrides.push_back({.id = ds.id, .join_slice = 0, .leave_slice = 2});
      break;
    }
  }
  ASSERT_EQ(spec.lifecycle_overrides.size(),
            static_cast<std::size_t>(1 + std::count_if(devices.begin(), devices.end(),
                                                       [&](const DeviceSpec& ds) {
                                                         return pair_of(ds) == late;
                                                       })));
  devices = spec.expand();
  std::uint64_t hhpim_devices = 0;
  for (const DeviceSpec& ds : devices) hhpim_devices += ds.firmware_index != kStatic ? 1 : 0;
  constexpr std::uint64_t kBuilds = 3;

  // The keys a segment ending at `cut` counts, in first-active order.
  const auto keys_active_before = [&](int cut) {
    std::vector<placement::LutCacheKey> keys;
    std::vector<bool> seen(spec.firmware.size() * n_models, false);
    for (const DeviceSpec& ds : devices) {
      if (ds.join_slice >= cut || seen[pair_of(ds)]) continue;
      seen[pair_of(ds)] = true;
      if (ds.firmware_index == kStatic) continue;
      keys.push_back(sys::lut_cache_key(spec.firmware[ds.firmware_index],
                                        spec.models[ds.model_index]));
    }
    return keys;
  };

  const auto prewarm = [&](placement::LutCache& cache) {
    sys::SystemConfig cfg = spec.config;
    cfg.lut_cache = &cache;
    (void)sys::Processor{cfg, spec.models[0]};
  };
  std::string reference;
  for (const unsigned threads : {1u, 4u}) {
    placement::LutCache whole_lut;
    prewarm(whole_lut);
    OutcomeCache whole_memo;
    const FleetResult whole =
        FleetSimulator{base_options(threads, true, &whole_lut, &whole_memo)}.run(spec);
    EXPECT_EQ(whole.lut_builds, kBuilds) << threads << " threads";
    EXPECT_EQ(whole.lut_shared, hhpim_devices - kBuilds) << threads << " threads";
    if (reference.empty()) reference = whole.summary_to_json();
    EXPECT_EQ(whole.summary_to_json(), reference) << threads << " threads";

    for (const std::vector<int>& cuts : {std::vector<int>{3}, std::vector<int>{3, 6}}) {
      placement::LutCache seg_lut;
      prewarm(seg_lut);
      OutcomeCache seg_memo;
      const FleetSimulator seg_sim{base_options(threads, true, &seg_lut, &seg_memo)};
      FleetSnapshot snap;
      for (std::size_t c = 0; c < cuts.size(); ++c) {
        snap = FleetSnapshot::from_bytes(
            seg_sim.run_to(spec, cuts[c], c == 0 ? nullptr : &snap).to_bytes());
        EXPECT_EQ(snap.lut_counted, keys_active_before(cuts[c])) << "cut " << cuts[c];
      }
      // The late pair joins at slice 5: not counted by the first segment.
      ASSERT_EQ(snap.lut_builds, cuts.size() == 1 ? kBuilds - 1 : kBuilds);
      ASSERT_TRUE(snap.devices[spec.lifecycle_overrides.back().id].done);
      const FleetResult seg = seg_sim.resume(spec, snap);
      EXPECT_EQ(seg.lut_builds, kBuilds) << threads << " threads";
      EXPECT_EQ(seg.lut_shared, hhpim_devices - kBuilds) << threads << " threads";
      EXPECT_EQ(seg.summary_to_json(), reference) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace hhpim::fleet
