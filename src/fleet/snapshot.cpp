#include "fleet/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "common/threads.hpp"

namespace hhpim::fleet {
namespace {

// "hhpimsnp", little-endian. Version bumps whenever the payload layout
// changes incompatibly; a reader parses its own version only, never guessing
// at an older or newer layout. Version 2: the processor blob is the one
// visit_state walk (no tracker leakage bits, no slice index). Version 3:
// samples are two columns, and the checksum is checksum64. Version 4:
// processor blobs live once each in a table deduplicated by bytes, and a
// live device stores an index into it plus its state digest. Version 5: the
// processor blob no longer carries a per-cluster controller (FSM state and
// MEM-interface horizon). Version 6: a live device of a randomized load
// shape stores its load cursor's generator words. Version 7: the slice
// histograms are carried once, after the LUT keys, and a device's samples
// are its busy column only. Version 8: a live device's processor field is
// the blob-table index alone (the blob's bytes name its state; no digest).
// Version 9: the busy column is dictionary-coded (its distinct values, one u8
// code per slice, and the spilled values; fleet::BusyColumn). Version 10:
// the device records are split into frames of kFrameDevices devices, each
// with its byte length and checksum64 in a frame table after the device
// count; the trailing checksum covers the payload up to the frames.
constexpr std::uint64_t kMagic = 0x706e736d69706868ULL;
constexpr std::uint32_t kVersion = 10;
/// Magic + version; the payload and the trailing checksum follow.
constexpr std::size_t kHeaderBytes = 12;
/// Devices per frame (the last frame holds the rest). A format constant, not
/// the thread count or the shard size, so the bytes are the same at any
/// thread count by construction.
constexpr std::size_t kFrameDevices = 256;

// Per-device field tags. A record has one order: the required fields (tags
// 1-4), then the optional sections that apply (5, 7, 8, 9), then the end tag
// (6). A reader meeting any other tag (unknown, missing, repeated or out of
// order) throws instead of misinterpreting the bytes that follow.
enum : std::uint16_t {
  kTagFlags = 1,    ///< u8: bit0 started, bit1 done
  kTagResult = 2,   ///< the DeviceResult fixed block
  kTagLane = 3,     ///< next_k, mode, switches, buffered, charge
  kTagSamples = 4,  ///< the busy column: counted values, u8 codes, spill
  kTagProc = 5,     ///< u32 blob-table index (live only)
  kTagDeviceEnd = 6,
  /// SLO lane (latency_slo_ps, tier_switches, applied tier) — written only
  /// when the device carries an SLO, so no-SLO snapshots stay byte-identical
  /// to pre-SLO builds.
  kTagSlo = 7,
  /// RISC-V host cycle counter — written only when non-zero, so host-off
  /// snapshots stay byte-identical to pre-host builds (docs/RISCV.md).
  kTagHost = 8,
  /// The load cursor's four generator words — written only when non-zero:
  /// live devices of randomized shapes. The cursor's position is next_k.
  kTagLoads = 9,
};

/// Bytes per record, which bound a declared count by the bytes left. The
/// smallest device record is its flags (3), result (119), lane (23) and
/// empty samples (26: the tag and three counts) fields and the end tag (2);
/// a snapshot of only such records must decode (tests/test_snapshot.cpp
/// pins it), so a format that shrinks the record shrinks this bound too.
constexpr std::size_t kLutKeyBytes = 48;
constexpr std::size_t kBinBytes = 8;
constexpr std::size_t kBlobBytes = 8;  ///< the length prefix of an empty blob
constexpr std::size_t kDeviceBytes = 173;

// Each record below is one walk, `template <class V> walk_*(V& v, ...)`,
// that names its fields once, as processor state is named once by
// visit_state (common/state_visitor.hpp). Three visitors run it: an Encoder
// over a ByteSizer sizes the buffer exactly, an Encoder over a SpanWriter
// fills it, and a Decoder over a ByteReader reads it back. So the reader
// parses exactly what the writer wrote, by construction.

/// Writes each field as its wire type. Only reads through the references
/// it is handed (to_bytes casts const away to share the walk).
template <class W>
class Encoder {
 public:
  static constexpr bool kLoad = false;

  explicit Encoder(W& w) : w_(w) {}

  template <class T> void u8(T& x) { w_.u8(static_cast<std::uint8_t>(x)); }
  template <class T> void u32(T& x) { w_.u32(static_cast<std::uint32_t>(x)); }
  template <class T> void u64(T& x) { w_.u64(static_cast<std::uint64_t>(x)); }
  template <class T> void i32(T& x) { w_.i32(static_cast<std::int32_t>(x)); }
  template <class T> void i64(T& x) { w_.i64(static_cast<std::int64_t>(x)); }
  void f64(double& x) { w_.f64(x); }
  void i64s(std::vector<std::int64_t>& xs) { w_.i64s(xs); }
  void u8s(std::vector<std::uint8_t>& xs) {
    w_.raw({reinterpret_cast<const char*>(xs.data()), xs.size()});
  }
  void blob(StateBlob& b) { w_.blob(*b); }
  /// A counted list's u64 length.
  template <class T>
  void count(std::vector<T>& xs, std::size_t, const char*) {
    w_.u64(static_cast<std::uint64_t>(xs.size()));
  }
  /// A required field's tag.
  void field(std::uint16_t tag, const char*) { w_.u16(tag); }
  /// An optional section's tag, when the section is `present`; returns
  /// whether its fields follow.
  bool section(std::uint16_t tag, bool present) {
    if (present) w_.u16(tag);
    return present;
  }
  [[nodiscard]] std::size_t position() const { return w_.size(); }

 private:
  W& w_;
};

/// Reads each field back, checking counts, tags and blob indices.
class Decoder {
 public:
  static constexpr bool kLoad = true;

  explicit Decoder(ByteReader& r) : r_(r) {}

  template <class T> void u8(T& x) { x = static_cast<T>(r_.u8()); }
  template <class T> void u32(T& x) { x = static_cast<T>(r_.u32()); }
  template <class T> void u64(T& x) { x = static_cast<T>(r_.u64()); }
  template <class T> void i32(T& x) { x = static_cast<T>(r_.i32()); }
  template <class T> void i64(T& x) { x = static_cast<T>(r_.i64()); }
  void f64(double& x) { x = r_.f64(); }
  void i64s(std::vector<std::int64_t>& xs) { r_.i64s(xs); }
  void u8s(std::vector<std::uint8_t>& xs) {
    const std::string_view bytes = r_.raw(xs.size());
    if (!xs.empty()) std::memcpy(xs.data(), bytes.data(), bytes.size());
  }
  void blob(StateBlob& b) { b = std::make_shared<const std::string>(r_.blob()); }
  /// Reads a u64 count and sizes `xs` to it, once `n` records of at least
  /// `min_bytes` are known to fit in what is left: a corrupt count throws
  /// instead of reserving the memory it names.
  template <class T>
  void count(std::vector<T>& xs, std::size_t min_bytes, const char* what) {
    const std::size_t at = r_.position();
    const std::uint64_t n = r_.u64();
    if (n > r_.remaining() / min_bytes) {
      throw std::runtime_error(
          "snapshot: " + std::to_string(n) + " " + what + " declared at offset " +
          std::to_string(at) + ", but only " + std::to_string(r_.remaining()) +
          " bytes remain");
    }
    xs.resize(static_cast<std::size_t>(n));
  }
  void field(std::uint16_t tag, const char* name) {
    const std::size_t at = r_.position();
    const std::uint16_t got = r_.u16();
    if (got != tag) {
      throw std::runtime_error(
          "snapshot: device field tag " + std::to_string(got) + " at offset " +
          std::to_string(at) + ", where the record lacks its " + name +
          " (an unknown, missing, repeated or out-of-order field)");
    }
  }
  /// Takes the section when its tag comes next.
  bool section(std::uint16_t tag, bool) {
    ByteReader ahead = r_;
    if (ahead.u16() != tag) return false;
    r_ = ahead;
    return true;
  }
  [[nodiscard]] std::size_t position() const { return r_.position(); }

 private:
  ByteReader& r_;
};

/// The snapshot's processor blobs, each stored once. Encoding, devices
/// sharing a blob (the common case — a fleet converges onto a few processor
/// states) are found by pointer, and distinct copies of equal bytes by
/// content; decoding, `blobs` is filled from the stream.
struct BlobTable {
  std::vector<StateBlob> blobs;
  std::vector<std::uint32_t> index;  ///< per device, encoding only

  BlobTable() = default;
  explicit BlobTable(const std::vector<DeviceProgress>& devices) {
    std::unordered_map<const std::string*, std::uint32_t> by_ptr;
    std::unordered_map<std::string_view, std::uint32_t> by_bytes;
    index.reserve(devices.size());
    for (const DeviceProgress& p : devices) {
      if (p.proc_blob == nullptr) {
        index.push_back(0);  // no kTagProc section is written
        continue;
      }
      const auto [it, fresh] = by_ptr.try_emplace(p.proc_blob.get(), 0);
      if (fresh) {
        const auto [jt, new_bytes] = by_bytes.try_emplace(
            *p.proc_blob, static_cast<std::uint32_t>(blobs.size()));
        if (new_bytes) blobs.push_back(p.proc_blob);
        it->second = jt->second;
      }
      index.push_back(it->second);
    }
  }

  /// Blob `i`, whose index was read at `offset`.
  [[nodiscard]] const StateBlob& at(std::uint32_t i, std::size_t offset) const {
    if (i >= blobs.size()) {
      throw std::runtime_error("snapshot: blob index " + std::to_string(i) +
                               " at offset " + std::to_string(offset) +
                               " is out of range (" + std::to_string(blobs.size()) +
                               " blobs)");
    }
    return blobs[i];
  }
};

/// Device `d`'s record.
template <class V>
void walk_device(V& v, DeviceProgress& p, const BlobTable& t, std::size_t d) {
  v.field(kTagFlags, "flags field");
  std::uint8_t flags = (p.started ? 1u : 0u) | (p.done ? 2u : 0u);
  v.u8(flags);
  if constexpr (V::kLoad) {
    p.started = (flags & 1u) != 0;
    p.done = (flags & 2u) != 0;
  }

  v.field(kTagResult, "result field");
  DeviceResult& r = p.result;
  v.u32(r.id);
  v.u32(r.model_index);
  v.u8(r.scenario);
  v.u64(r.seed);
  v.i64(r.slice_ps);
  v.i32(r.slices_total);
  v.i32(r.slices_executed);
  v.u64(r.tasks);
  v.u64(r.tasks_dropped);
  v.u64(r.deadline_violations);
  v.f64(r.energy_pj);
  v.f64(r.battery_capacity_pj);
  v.f64(r.final_soc);
  v.i32(r.exhausted_at_slice);
  v.u32(r.mode_switches);
  v.i32(r.low_power_slices);
  v.i64(r.busy_time_ps);
  v.i64(r.max_busy_ps);
  v.i64(r.movement_time_ps);

  v.field(kTagLane, "lane field");
  v.i32(p.next_k);
  v.u8(p.mode);
  v.u32(p.switches);
  v.i32(p.buffered);
  v.f64(p.charge_pj);

  v.field(kTagSamples, "samples field");
  p.busy.walk(v);

  if (v.section(kTagProc, p.proc_blob != nullptr)) {
    const std::size_t at = v.position();
    std::uint32_t i = V::kLoad ? 0 : t.index[d];
    v.u32(i);
    if constexpr (V::kLoad) p.proc_blob = t.at(i, at);
  }
  if (v.section(kTagSlo, r.latency_slo_ps > 0 || r.tier_switches != 0 || p.tier != 255)) {
    v.i64(r.latency_slo_ps);
    v.u32(r.tier_switches);
    v.u8(p.tier);
  }
  if (v.section(kTagHost, r.host_cycles != 0)) v.u64(r.host_cycles);
  workload::LoadStream::State words = p.loads.state();
  if (v.section(kTagLoads, words != workload::LoadStream::State{})) {
    for (std::uint64_t& word : words) v.u64(word);
    if constexpr (V::kLoad) p.loads = workload::LoadStream{words};
  }
  v.field(kTagDeviceEnd, "end tag");
}

/// A carried histogram: f64 lo, f64 hi, u64 bin count, the bins, then
/// u64 underflow and u64 overflow (the total is their sum).
template <class V>
void walk_histogram(V& v, sim::Histogram& h, const char* name) {
  const std::size_t at = v.position();
  double lo = h.lo();
  double hi = h.hi();
  std::vector<std::uint64_t> bins;
  if constexpr (!V::kLoad) bins = h.bins();
  std::uint64_t underflow = h.underflow();
  std::uint64_t overflow = h.overflow();
  v.f64(lo);
  v.f64(hi);
  v.count(bins, kBinBytes, "histogram bins");
  for (std::uint64_t& b : bins) v.u64(b);
  v.u64(underflow);
  v.u64(overflow);
  if constexpr (V::kLoad) {
    try {
      h = sim::Histogram::from_counts(lo, hi, std::move(bins), underflow, overflow);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("snapshot: the " + std::string{name} +
                               " histogram at offset " + std::to_string(at) +
                               " is malformed (" + e.what() + ")");
    }
  }
}

/// A frame table entry: the frame's bytes and their checksum64.
struct Frame {
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

[[nodiscard]] std::size_t frame_count(std::size_t devices) {
  return (devices + kFrameDevices - 1) / kFrameDevices;
}

/// The payload before the frames, which the trailing checksum covers: the
/// header fields, the counted LUT keys, the carried histograms, the blob
/// table, the device count and the frame table.
template <class V>
void walk_head(V& v, FleetSnapshot& s, BlobTable& t, std::vector<Frame>& frames) {
  v.u64(s.spec_digest);
  v.u32(s.next_slice);
  v.u64(s.lut_builds);
  v.count(s.lut_counted, kLutKeyBytes, "LUT keys");
  for (placement::LutCacheKey& k : s.lut_counted) {
    v.u64(k.topology_hash);
    v.u64(k.arch_hash);
    v.u64(k.cost_hash);
    v.i64(k.slice_ps);
    v.u64(k.total_weights);
    v.i32(k.t_entries);
    v.i32(k.k_blocks);
  }
  walk_histogram(v, s.slice_bins.busy_frac, "busy_frac");
  walk_histogram(v, s.slice_bins.slice_energy, "slice_energy");
  v.count(t.blobs, kBlobBytes, "processor blobs");
  for (StateBlob& b : t.blobs) v.blob(b);
  v.count(s.devices, kDeviceBytes, "devices");
  if constexpr (V::kLoad) frames.resize(frame_count(s.devices.size()));
  for (Frame& f : frames) {
    v.u64(f.length);
    v.u64(f.checksum);
  }
}

/// Frame `f`: the records of its devices, in id order.
template <class V>
void walk_frame(V& v, FleetSnapshot& s, const BlobTable& t, std::size_t f) {
  const std::size_t end = std::min(s.devices.size(), (f + 1) * kFrameDevices);
  for (std::size_t d = f * kFrameDevices; d < end; ++d) walk_device(v, s.devices[d], t, d);
}

/// Throws std::logic_error unless `w` filled its span: the sizing walk and
/// the writing walk disagree.
void expect_full(const SpanWriter& w, std::size_t sized, const char* what) {
  if (!w.full()) {
    throw std::logic_error("snapshot: encoded " + std::to_string(w.size()) + " bytes of " +
                           what + ", sized " + std::to_string(sized));
  }
}

}  // namespace

std::string FleetSnapshot::to_bytes() const {
  auto& self = const_cast<FleetSnapshot&>(*this);  // the encoders only read
  BlobTable table{devices};
  // Sizing walks add constants and counts only: serially it costs less
  // than a second round of workers would.
  std::vector<Frame> frames(frame_count(devices.size()));
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ByteSizer sizer;
    Encoder sized{sizer};
    walk_frame(sized, self, table, f);
    frames[f].length = sizer.size();
  }
  ByteSizer head_sizer;
  Encoder head_sized{head_sizer};
  walk_head(head_sized, self, table, frames);
  // Frame f spans [at[f], at[f + 1]) of the buffer; the checksum follows.
  std::vector<std::size_t> at(frames.size() + 1, kHeaderBytes + head_sizer.size());
  for (std::size_t f = 0; f < frames.size(); ++f) at[f + 1] = at[f] + frames[f].length;
  std::string out(at.back() + 8, '\0');

  const unsigned workers = resolve_workers(threads, frames.size());
  claim_each(frames.size(), workers, [&](unsigned, std::size_t f) {
    const std::span<char> span{out.data() + at[f], frames[f].length};
    SpanWriter w{span};
    Encoder enc{w};
    walk_frame(enc, self, table, f);
    expect_full(w, span.size(), "a frame");
    frames[f].checksum = checksum64({span.data(), span.size()});
  });
  SpanWriter w{{out.data(), at.front()}};
  w.u64(kMagic);
  w.u32(kVersion);
  Encoder enc{w};
  walk_head(enc, self, table, frames);
  expect_full(w, at.front(), "the head");
  SpanWriter{{out.data() + at.back(), 8}}.u64(
      checksum64(std::string_view{out}.substr(kHeaderBytes, at.front() - kHeaderBytes)));
  return out;
}

FleetSnapshot FleetSnapshot::from_bytes(std::string_view bytes, unsigned threads) {
  ByteReader header{bytes};
  if (header.u64() != kMagic) {
    throw std::runtime_error("snapshot: bad magic (not a fleet snapshot)");
  }
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw std::runtime_error(
        "snapshot: format version " + std::to_string(version) +
        " is not the one this build reads (" + std::to_string(kVersion) + ")");
  }
  if (header.remaining() < 8) {
    throw std::runtime_error("snapshot: truncated stream (missing checksum)");
  }
  const std::string_view payload =
      bytes.substr(kHeaderBytes, header.remaining() - 8);

  // The head, serially; its walk bounds every count by the bytes left, so
  // it reads forged counts safely before the checksum is known.
  ByteReader r{payload};
  Decoder in{r};
  FleetSnapshot snap;
  snap.threads = resolve_threads(threads);
  BlobTable table;
  std::vector<Frame> frames;
  walk_head(in, snap, table, frames);
  ByteReader tail{bytes.substr(bytes.size() - 8)};
  if (checksum64(payload.substr(0, r.position())) != tail.u64()) {
    throw std::runtime_error(
        "snapshot: checksum mismatch (corrupted or truncated stream)");
  }
  // Frame f spans [at[f], at[f + 1]) of the payload, which the frames fill.
  std::vector<std::size_t> at(frames.size() + 1, r.position());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::size_t left = payload.size() - at[f];
    if (frames[f].length > left) {
      throw std::runtime_error("snapshot: frame " + std::to_string(f) + " at offset " +
                               std::to_string(at[f]) + " declares " +
                               std::to_string(frames[f].length) + " bytes, but only " +
                               std::to_string(left) + " bytes remain");
    }
    at[f + 1] = at[f] + static_cast<std::size_t>(frames[f].length);
  }
  if (at.back() != payload.size()) {
    throw std::runtime_error("snapshot: the frames end at offset " +
                             std::to_string(at.back()) + ", but the payload holds " +
                             std::to_string(payload.size()) + " bytes");
  }

  // The frames, on the workers; claim_each rethrows the lowest failing
  // frame's error, so the diagnostic does not depend on the thread count.
  const unsigned workers = resolve_workers(threads, frames.size());
  claim_each(frames.size(), workers, [&](unsigned, std::size_t f) {
    if (checksum64(payload.substr(at[f], at[f + 1] - at[f])) != frames[f].checksum) {
      throw std::runtime_error("snapshot: checksum mismatch in frame " + std::to_string(f) +
                               " at offset " + std::to_string(at[f]));
    }
    ByteReader fr{payload.substr(0, at[f + 1]), at[f]};
    Decoder dec{fr};
    walk_frame(dec, snap, table, f);
    if (!fr.at_end()) {
      throw std::runtime_error("snapshot: the device records of frame " + std::to_string(f) +
                               " end at offset " + std::to_string(fr.position()) +
                               ", short of the frame's end at offset " +
                               std::to_string(at[f + 1]));
    }
  });
  return snap;
}

void FleetSnapshot::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  const std::string bytes = to_bytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: write failed for " + path);
}

FleetSnapshot FleetSnapshot::load(const std::string& path, unsigned threads) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("snapshot: cannot size " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  if (in.gcount() != size) {
    throw std::runtime_error("snapshot: read failed for " + path);
  }
  return from_bytes(bytes, threads);
}

}  // namespace hhpim::fleet
