#include "fleet/snapshot.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/hash.hpp"
#include "common/serialize.hpp"

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
constexpr std::uint64_t kMagic = 0x706e736d69706868ULL;
constexpr std::uint32_t kVersion = 8;
/// Magic + version; the checksummed payload follows.
constexpr std::size_t kHeaderBytes = 12;

// Per-device field tags. Explicit tags (rather than bare field order) keep
// the format self-describing: a reader meeting a tag it does not know
// throws instead of misinterpreting the bytes that follow.
enum : std::uint16_t {
  kTagFlags = 1,    ///< u8: bit0 started, bit1 done
  kTagResult = 2,   ///< the DeviceResult fixed block
  kTagLane = 3,     ///< next_k, mode, switches, buffered, charge
  kTagSamples = 4,  ///< u64 n, then n busy i64s
  kTagProc = 5,     ///< u32 blob-table index (live only)
  kTagDeviceEnd = 6,
  /// SLO lane (latency_slo_ps, tier_switches, applied tier) — written only
  /// when the device carries an SLO, so no-SLO snapshots stay byte-identical
  /// to pre-SLO builds (and readable by them: the tag is self-describing
  /// within this build; older readers fail loudly on it, which is the
  /// intended behavior for a snapshot that genuinely needs the SLO fields).
  kTagSlo = 7,
  /// RISC-V host cycle counter — written only when non-zero, so host-off
  /// snapshots stay byte-identical to pre-host builds (docs/RISCV.md).
  kTagHost = 8,
  /// The load cursor's four generator words — written only when non-zero:
  /// live devices of randomized shapes. The cursor's position is next_k.
  kTagLoads = 9,
};

/// Every device record carries these fields, so it is never shorter than
/// min_device_bytes().
constexpr unsigned kRequiredTags =
    (1u << kTagFlags) | (1u << kTagResult) | (1u << kTagLane) | (1u << kTagSamples);

/// Bytes per record, which bound a declared count by the bytes left.
constexpr std::size_t kLutKeyBytes = 48;
constexpr std::size_t kSampleBytes = 8;
constexpr std::size_t kBinBytes = 8;
constexpr std::size_t kBlobBytes = 8;  ///< the length prefix of an empty blob

/// No blob: a device record without kTagProc.
constexpr std::uint32_t kNoBlob = 0xffffffffu;

/// The snapshot's processor blobs, each stored once: devices sharing a blob
/// (the common case — a fleet converges onto a few processor states) are
/// found by pointer, and distinct copies of equal bytes by content.
struct BlobTable {
  std::vector<std::string_view> blobs;
  std::vector<std::uint32_t> index;  ///< per device; kNoBlob = none

  explicit BlobTable(const std::vector<DeviceProgress>& devices) {
    std::unordered_map<const std::string*, std::uint32_t> by_ptr;
    std::unordered_map<std::string_view, std::uint32_t> by_bytes;
    index.reserve(devices.size());
    for (const DeviceProgress& p : devices) {
      if (p.proc_blob == nullptr) {
        index.push_back(kNoBlob);
        continue;
      }
      const auto [it, fresh] = by_ptr.try_emplace(p.proc_blob.get(), 0);
      if (fresh) {
        const auto [jt, new_bytes] = by_bytes.try_emplace(
            *p.proc_blob, static_cast<std::uint32_t>(blobs.size()));
        if (new_bytes) blobs.push_back(*p.proc_blob);
        it->second = jt->second;
      }
      index.push_back(it->second);
    }
  }
};

/// Reads a u64 record count and checks that `n` records of at least
/// `min_bytes` fit in what is left, so a corrupt count throws instead of
/// reserving memory it names.
std::size_t read_count(ByteReader& r, std::size_t min_bytes, const char* what) {
  const std::size_t at = r.position();
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / min_bytes) {
    throw std::runtime_error(
        "snapshot: " + std::to_string(n) + " " + what + " declared at offset " +
        std::to_string(at) + ", but only " + std::to_string(r.remaining()) +
        " bytes remain");
  }
  return static_cast<std::size_t>(n);
}

// The encoder is written once over the writer type: a ByteSizer pass sizes
// the buffer exactly, then a ByteWriter pass fills it.
template <class W>
void write_device(W& w, const DeviceProgress& p, std::uint32_t blob) {
  w.u16(kTagFlags);
  w.u8(static_cast<std::uint8_t>((p.started ? 1u : 0u) | (p.done ? 2u : 0u)));

  w.u16(kTagResult);
  const DeviceResult& r = p.result;
  w.u32(r.id);
  w.u32(r.model_index);
  w.u8(static_cast<std::uint8_t>(r.scenario));
  w.u64(r.seed);
  w.i64(r.slice_ps);
  w.i32(r.slices_total);
  w.i32(r.slices_executed);
  w.u64(r.tasks);
  w.u64(r.tasks_dropped);
  w.u64(r.deadline_violations);
  w.f64(r.energy_pj);
  w.f64(r.battery_capacity_pj);
  w.f64(r.final_soc);
  w.i32(r.exhausted_at_slice);
  w.u32(r.mode_switches);
  w.i32(r.low_power_slices);
  w.i64(r.busy_time_ps);
  w.i64(r.max_busy_ps);
  w.i64(r.movement_time_ps);

  w.u16(kTagLane);
  w.i32(p.next_k);
  w.u8(p.mode);
  w.u32(p.switches);
  w.i32(p.buffered);
  w.f64(p.charge_pj);

  w.u16(kTagSamples);
  w.u64(static_cast<std::uint64_t>(p.sample_busy_ps.size()));
  w.i64s(p.sample_busy_ps);

  if (blob != kNoBlob) {
    w.u16(kTagProc);
    w.u32(blob);
  }
  if (p.result.latency_slo_ps > 0 || p.result.tier_switches != 0 || p.tier != 255) {
    w.u16(kTagSlo);
    w.i64(p.result.latency_slo_ps);
    w.u32(p.result.tier_switches);
    w.u8(p.tier);
  }
  if (p.result.host_cycles != 0) {
    w.u16(kTagHost);
    w.u64(p.result.host_cycles);
  }
  if (const workload::LoadStream::State words = p.loads.state();
      words != workload::LoadStream::State{}) {
    w.u16(kTagLoads);
    for (const std::uint64_t word : words) w.u64(word);
  }
  w.u16(kTagDeviceEnd);
}

/// The smallest device record: the required fields, no samples.
std::size_t min_device_bytes() {
  ByteSizer s;
  write_device(s, DeviceProgress{}, kNoBlob);
  return s.size();
}

DeviceProgress read_device(ByteReader& r, const std::vector<StateBlob>& blobs) {
  DeviceProgress p;
  const std::size_t at = r.position();
  unsigned seen = 0;  // bit t: tag t was read
  for (;;) {
    const std::uint16_t tag = r.u16();
    if (tag < 32) seen |= 1u << tag;
    switch (tag) {
      case kTagFlags: {
        const std::uint8_t f = r.u8();
        p.started = (f & 1u) != 0;
        p.done = (f & 2u) != 0;
        break;
      }
      case kTagResult: {
        DeviceResult& d = p.result;
        d.id = r.u32();
        d.model_index = r.u32();
        d.scenario = static_cast<workload::Scenario>(r.u8());
        d.seed = r.u64();
        d.slice_ps = r.i64();
        d.slices_total = r.i32();
        d.slices_executed = r.i32();
        d.tasks = r.u64();
        d.tasks_dropped = r.u64();
        d.deadline_violations = r.u64();
        d.energy_pj = r.f64();
        d.battery_capacity_pj = r.f64();
        d.final_soc = r.f64();
        d.exhausted_at_slice = r.i32();
        d.mode_switches = r.u32();
        d.low_power_slices = r.i32();
        d.busy_time_ps = r.i64();
        d.max_busy_ps = r.i64();
        d.movement_time_ps = r.i64();
        break;
      }
      case kTagLane:
        p.next_k = r.i32();
        p.mode = r.u8();
        p.switches = r.u32();
        p.buffered = r.i32();
        p.charge_pj = r.f64();
        break;
      case kTagSamples: {
        const std::size_t n = read_count(r, kSampleBytes, "samples");
        p.sample_busy_ps.resize(n);
        r.i64s(p.sample_busy_ps);
        break;
      }
      case kTagProc: {
        const std::uint32_t i = r.u32();
        if (i >= blobs.size()) {
          throw std::runtime_error("snapshot: blob index " + std::to_string(i) +
                                   " at offset " + std::to_string(r.position() - 4) +
                                   " is out of range (" +
                                   std::to_string(blobs.size()) + " blobs)");
        }
        p.proc_blob = blobs[i];
        break;
      }
      case kTagSlo:
        p.result.latency_slo_ps = r.i64();
        p.result.tier_switches = r.u32();
        p.tier = r.u8();
        break;
      case kTagHost:
        p.result.host_cycles = r.u64();
        break;
      case kTagLoads: {
        workload::LoadStream::State words{};
        for (std::uint64_t& word : words) word = r.u64();
        p.loads = workload::LoadStream{words};
        break;
      }
      case kTagDeviceEnd:
        if ((seen & kRequiredTags) != kRequiredTags) {
          throw std::runtime_error(
              "snapshot: device record at offset " + std::to_string(at) +
              " lacks its flags, result, lane or samples field");
        }
        return p;
      default:
        throw std::runtime_error(
            "snapshot: unknown device field tag " + std::to_string(tag) +
            " at offset " + std::to_string(r.position()) +
            " (stream written by an incompatible build?)");
    }
  }
}

/// A carried histogram: f64 lo, f64 hi, u64 bin count, the bins, then
/// u64 underflow and u64 overflow (the total is their sum).
template <class W>
void write_histogram(W& w, const sim::Histogram& h) {
  w.f64(h.lo());
  w.f64(h.hi());
  w.u64(static_cast<std::uint64_t>(h.bins().size()));
  for (const std::uint64_t b : h.bins()) w.u64(b);
  w.u64(h.underflow());
  w.u64(h.overflow());
}

sim::Histogram read_histogram(ByteReader& r, const char* name) {
  const std::size_t at = r.position();
  const double lo = r.f64();
  const double hi = r.f64();
  std::vector<std::uint64_t> bins(read_count(r, kBinBytes, "histogram bins"));
  for (std::uint64_t& b : bins) b = r.u64();
  const std::uint64_t underflow = r.u64();
  const std::uint64_t overflow = r.u64();
  try {
    return sim::Histogram::from_counts(lo, hi, std::move(bins), underflow, overflow);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("snapshot: the " + std::string{name} +
                             " histogram at offset " + std::to_string(at) +
                             " is malformed (" + e.what() + ")");
  }
}

template <class W>
void write_snapshot(W& w, const FleetSnapshot& s, const BlobTable& t) {
  w.u64(kMagic);
  w.u32(kVersion);
  w.u64(s.spec_digest);
  w.u32(static_cast<std::uint32_t>(s.next_slice));
  w.u64(s.lut_builds);
  w.u64(static_cast<std::uint64_t>(s.lut_counted.size()));
  for (const placement::LutCacheKey& k : s.lut_counted) {
    w.u64(k.topology_hash);
    w.u64(k.arch_hash);
    w.u64(k.cost_hash);
    w.i64(k.slice_ps);
    w.u64(k.total_weights);
    w.i32(k.t_entries);
    w.i32(k.k_blocks);
  }
  write_histogram(w, s.slice_bins.busy_frac);
  write_histogram(w, s.slice_bins.slice_energy);
  w.u64(static_cast<std::uint64_t>(t.blobs.size()));
  for (const std::string_view b : t.blobs) w.blob(b);
  w.u64(static_cast<std::uint64_t>(s.devices.size()));
  for (std::size_t i = 0; i < s.devices.size(); ++i) {
    write_device(w, s.devices[i], t.index[i]);
  }
}

}  // namespace

std::string FleetSnapshot::to_bytes() const {
  const BlobTable table{devices};
  ByteSizer sizer;
  write_snapshot(sizer, *this, table);
  const std::size_t size = sizer.size() + 8;  // + the checksum

  ByteWriter w;
  w.reserve(size);
  write_snapshot(w, *this, table);
  w.u64(checksum64(std::string_view{w.bytes()}.substr(kHeaderBytes)));
  if (w.size() != size) {
    throw std::logic_error("snapshot: encoded " + std::to_string(w.size()) +
                           " bytes, sized " + std::to_string(size));
  }
  return w.take();
}

FleetSnapshot FleetSnapshot::from_bytes(std::string_view bytes) {
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
  ByteReader tail{bytes.substr(bytes.size() - 8)};
  if (checksum64(payload) != tail.u64()) {
    throw std::runtime_error(
        "snapshot: checksum mismatch (corrupted or truncated stream)");
  }

  ByteReader r{payload};
  FleetSnapshot snap;
  snap.spec_digest = r.u64();
  snap.next_slice = static_cast<int>(r.u32());
  snap.lut_builds = r.u64();
  const std::size_t n_keys = read_count(r, kLutKeyBytes, "LUT keys");
  snap.lut_counted.reserve(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    placement::LutCacheKey k;
    k.topology_hash = r.u64();
    k.arch_hash = r.u64();
    k.cost_hash = r.u64();
    k.slice_ps = r.i64();
    k.total_weights = r.u64();
    k.t_entries = r.i32();
    k.k_blocks = r.i32();
    snap.lut_counted.push_back(k);
  }
  snap.slice_bins.busy_frac = read_histogram(r, "busy_frac");
  snap.slice_bins.slice_energy = read_histogram(r, "slice_energy");
  const std::size_t n_blobs = read_count(r, kBlobBytes, "processor blobs");
  std::vector<StateBlob> blobs;
  blobs.reserve(n_blobs);
  for (std::size_t i = 0; i < n_blobs; ++i) {
    blobs.push_back(std::make_shared<const std::string>(r.blob()));
  }
  const std::size_t n_devices = read_count(r, min_device_bytes(), "devices");
  snap.devices.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    snap.devices.push_back(read_device(r, blobs));
  }
  if (!r.at_end()) {
    throw std::runtime_error(
        "snapshot: " + std::to_string(r.remaining()) +
        " trailing payload bytes after the last device record");
  }
  return snap;
}

void FleetSnapshot::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  const std::string bytes = to_bytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: write failed for " + path);
}

FleetSnapshot FleetSnapshot::load(const std::string& path) {
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
  return from_bytes(bytes);
}

}  // namespace hhpim::fleet
