#include "fleet/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/serialize.hpp"

namespace hhpim::fleet {
namespace {

// "hhpimsnp", little-endian. Version bumps whenever the payload layout
// changes incompatibly; a reader parses its own version only, never guessing
// at an older or newer layout. Version 2: the processor blob is the one
// visit_state walk (no tracker leakage bits, no slice index).
constexpr std::uint64_t kMagic = 0x706e736d69706868ULL;
constexpr std::uint32_t kVersion = 2;

// Per-device field tags. Explicit tags (rather than bare field order) keep
// the format self-describing: a reader meeting a tag it does not know
// throws instead of misinterpreting the bytes that follow.
enum : std::uint16_t {
  kTagFlags = 1,    ///< u8: bit0 started, bit1 done
  kTagResult = 2,   ///< the DeviceResult fixed block
  kTagLane = 3,     ///< next_k, mode, switches, buffered, charge
  kTagSamples = 4,  ///< buffered per-slice aggregate samples
  kTagProc = 5,     ///< Processor::save_state blob (live devices only)
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
};

std::uint64_t digest_bytes(std::string_view bytes) {
  return Fnv1a{}.add_bytes(bytes.data(), bytes.size()).digest();
}

void write_device(ByteWriter& w, const DeviceProgress& p) {
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
  for (std::size_t i = 0; i < p.sample_busy_ps.size(); ++i) {
    w.i64(p.sample_busy_ps[i]);
    w.f64(p.sample_energy_pj[i]);
  }

  if (!p.proc_state.empty()) {
    w.u16(kTagProc);
    w.blob(p.proc_state);
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
  w.u16(kTagDeviceEnd);
}

DeviceProgress read_device(ByteReader& r) {
  DeviceProgress p;
  for (;;) {
    const std::uint16_t tag = r.u16();
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
        const std::uint64_t n = r.u64();
        p.sample_busy_ps.reserve(static_cast<std::size_t>(n));
        p.sample_energy_pj.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          p.sample_busy_ps.push_back(r.i64());
          p.sample_energy_pj.push_back(r.f64());
        }
        break;
      }
      case kTagProc:
        p.proc_state = std::string(r.blob());
        break;
      case kTagSlo:
        p.result.latency_slo_ps = r.i64();
        p.result.tier_switches = r.u32();
        p.tier = r.u8();
        break;
      case kTagHost:
        p.result.host_cycles = r.u64();
        break;
      case kTagDeviceEnd:
        return p;
      default:
        throw std::runtime_error(
            "snapshot: unknown device field tag " + std::to_string(tag) +
            " at offset " + std::to_string(r.position()) +
            " (stream written by an incompatible build?)");
    }
  }
}

}  // namespace

std::string FleetSnapshot::to_bytes() const {
  ByteWriter payload;
  payload.u64(spec_digest);
  payload.u32(static_cast<std::uint32_t>(next_slice));
  payload.u64(lut_builds);
  payload.u64(static_cast<std::uint64_t>(lut_counted.size()));
  for (const placement::LutCacheKey& k : lut_counted) {
    payload.u64(k.topology_hash);
    payload.u64(k.arch_hash);
    payload.u64(k.cost_hash);
    payload.i64(k.slice_ps);
    payload.u64(k.total_weights);
    payload.i32(k.t_entries);
    payload.i32(k.k_blocks);
  }
  payload.u64(static_cast<std::uint64_t>(devices.size()));
  for (const DeviceProgress& p : devices) write_device(payload, p);

  ByteWriter out;
  out.u64(kMagic);
  out.u32(kVersion);
  out.raw(payload.bytes());
  out.u64(digest_bytes(payload.bytes()));
  return out.take();
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
      bytes.substr(header.position(), header.remaining() - 8);
  ByteReader tail{bytes.substr(bytes.size() - 8)};
  if (digest_bytes(payload) != tail.u64()) {
    throw std::runtime_error(
        "snapshot: checksum mismatch (corrupted or truncated stream)");
  }

  ByteReader r{payload};
  FleetSnapshot snap;
  snap.spec_digest = r.u64();
  snap.next_slice = static_cast<int>(r.u32());
  snap.lut_builds = r.u64();
  const std::uint64_t n_seen = r.u64();
  snap.lut_counted.reserve(static_cast<std::size_t>(n_seen));
  for (std::uint64_t i = 0; i < n_seen; ++i) {
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
  const std::uint64_t n_devices = r.u64();
  snap.devices.reserve(static_cast<std::size_t>(n_devices));
  for (std::uint64_t i = 0; i < n_devices; ++i) {
    snap.devices.push_back(read_device(r));
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
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("snapshot: read failed for " + path);
  return from_bytes(buf.str());
}

}  // namespace hhpim::fleet
