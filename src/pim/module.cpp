#include "pim/module.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::pim {

namespace {
std::size_t idx(energy::MemoryKind m) { return m == energy::MemoryKind::kMram ? 0 : 1; }
}  // namespace

PimModule::PimModule(ModuleConfig config, const energy::PowerSpec& spec,
                     energy::EnergyLedger* ledger)
    : config_(std::move(config)),
      spec_(spec.module(config_.cluster)),
      mram_(config_.mram_bytes > 0
                ? std::optional<mem::Bank>{mem::make_mram(spec, config_.cluster,
                                                          config_.name + ".mram",
                                                          config_.mram_bytes, ledger)}
                : std::nullopt),
      sram_(mem::make_sram(spec, config_.cluster, config_.name + ".sram",
                           config_.sram_bytes, ledger)),
      pe_(config_.name + ".pe", spec.module(config_.cluster).pe, ledger) {}

mem::Bank& PimModule::require_bank(energy::MemoryKind m) {
  if (m == energy::MemoryKind::kMram) {
    if (!mram_.has_value()) {
      throw std::logic_error("PimModule " + config_.name + ": no MRAM present");
    }
    return *mram_;
  }
  return sram_;
}

const mem::Bank& PimModule::require_bank(energy::MemoryKind m) const {
  return const_cast<PimModule*>(this)->require_bank(m);
}

mem::Bank& PimModule::bank(energy::MemoryKind m) { return require_bank(m); }

std::uint64_t PimModule::weight_capacity(energy::MemoryKind m) const {
  if (m == energy::MemoryKind::kMram) {
    return mram_.has_value() ? mram_->capacity() : 0;
  }
  return sram_.capacity();
}

void PimModule::set_resident(energy::MemoryKind m, std::uint64_t weights, Time now) {
  if (weights > weight_capacity(m)) {
    throw std::invalid_argument("PimModule " + config_.name + ": " +
                                std::to_string(weights) + " weights exceed " +
                                energy::to_string(m) + " capacity");
  }
  resident_[idx(m)] = weights;
  if (m == energy::MemoryKind::kSram) {
    // Retention: enough SRAM sub-banks to hold the weights stay powered
    // (1 byte per int8 weight); the rest of the macro gates.
    sram_.set_active_bytes(static_cast<std::size_t>(weights), now);
  }
}

std::uint64_t PimModule::resident(energy::MemoryKind m) const { return resident_[idx(m)]; }

Time PimModule::mac_latency(energy::MemoryKind m) const {
  const Time read = m == energy::MemoryKind::kMram ? spec_.mram_timing.read
                                                   : spec_.sram_timing.read;
  return read + spec_.pe.mac_latency;
}

void PimModule::open_windows(Time start, energy::MemoryKind m, bool uses_pe) {
  if (m == energy::MemoryKind::kMram) require_bank(m).power_on(start);
  // SRAM doubles as the I/O buffer: at least one sub-array is active during
  // any burst, on top of the sub-arrays retaining weights.
  const std::size_t io = std::min<std::size_t>(sram_.capacity(),
                                               sram_.config().gate_granularity_bytes);
  const std::size_t resident = resident_[idx(energy::MemoryKind::kSram)];
  sram_.set_active_bytes(std::max<std::size_t>(resident, io), start);
  if (uses_pe) pe_.power_on(start);
}

void PimModule::close_windows(Time end, energy::MemoryKind m, bool uses_pe) {
  // MRAM gates immediately after the burst (non-volatile).
  if (m == energy::MemoryKind::kMram && mram_.has_value()) mram_->power_off(end);
  // SRAM keeps only its weight-retention sub-banks powered.
  sram_.set_active_bytes(resident_[idx(energy::MemoryKind::kSram)], end);
  if (uses_pe) pe_.power_off(end);
}

BurstResult PimModule::compute_burst(Time now, energy::MemoryKind m, std::uint64_t macs) {
  mem::Bank& bank = require_bank(m);
  const Time start = std::max(now, busy_until_);
  const Time duration = mac_latency(m) * static_cast<std::int64_t>(macs);
  const Time end = start + duration;
  busy_until_ = end;

  open_windows(start, m, /*uses_pe=*/true);
  bank.charge_reads(macs);
  pe_.charge_macs(macs);
  close_windows(end, m, /*uses_pe=*/true);
  return BurstResult{start, end};
}

BurstResult PimModule::stream_out(Time now, energy::MemoryKind m, std::uint64_t weights) {
  mem::Bank& bank = require_bank(m);
  const Time start = std::max(now, busy_until_);
  const Time per = m == energy::MemoryKind::kMram ? spec_.mram_timing.read
                                                  : spec_.sram_timing.read;
  const Time end = start + per * static_cast<std::int64_t>(weights);
  busy_until_ = end;
  open_windows(start, m, /*uses_pe=*/false);
  bank.charge_reads(weights);
  close_windows(end, m, /*uses_pe=*/false);
  return BurstResult{start, end};
}

BurstResult PimModule::stream_in(Time now, energy::MemoryKind m, std::uint64_t weights) {
  mem::Bank& bank = require_bank(m);
  const Time start = std::max(now, busy_until_);
  const Time per = m == energy::MemoryKind::kMram ? spec_.mram_timing.write
                                                  : spec_.sram_timing.write;
  const Time end = start + per * static_cast<std::int64_t>(weights);
  busy_until_ = end;
  open_windows(start, m, /*uses_pe=*/false);
  bank.charge_writes(weights);
  close_windows(end, m, /*uses_pe=*/false);
  return BurstResult{start, end};
}

BurstResult PimModule::intra_move(Time now, energy::MemoryKind from, energy::MemoryKind to,
                                  std::uint64_t weights) {
  if (from == to) {
    throw std::invalid_argument("PimModule: intra_move requires distinct memories");
  }
  mem::Bank& src = require_bank(from);
  mem::Bank& dst = require_bank(to);
  const Time start = std::max(now, busy_until_);
  const Time per_read = from == energy::MemoryKind::kMram ? spec_.mram_timing.read
                                                          : spec_.sram_timing.read;
  const Time per_write = to == energy::MemoryKind::kMram ? spec_.mram_timing.write
                                                         : spec_.sram_timing.write;
  // Read and write streams through the module interface are pipelined; the
  // slower side dominates, plus one lead-in of the faster side.
  const Time read_total = per_read * static_cast<std::int64_t>(weights);
  const Time write_total = per_write * static_cast<std::int64_t>(weights);
  const Time duration = std::max(read_total, write_total) +
                        (read_total < write_total ? per_read : per_write);
  const Time end = start + duration;
  busy_until_ = end;

  open_windows(start, from, /*uses_pe=*/false);
  open_windows(start, to, /*uses_pe=*/false);
  src.charge_reads(weights);
  dst.charge_writes(weights);
  close_windows(end, from, /*uses_pe=*/false);
  close_windows(end, to, /*uses_pe=*/false);
  return BurstResult{start, end};
}

std::int32_t PimModule::compute_dot(Time now, energy::MemoryKind m, std::size_t weight_addr,
                                    const std::int8_t* acts, std::size_t n,
                                    BurstResult* timing) {
  mem::Bank& bank = require_bank(m);
  const Time start = std::max(now, busy_until_);
  open_windows(start, m, /*uses_pe=*/true);

  // Op-level simulation: one read + one MAC per element, serialized exactly
  // as the burst model assumes. Uses the banks' own timed interface so the
  // result must agree with compute_burst — this is asserted in tests.
  Time t = start;
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t w = 0;
    const auto r = bank.read(t, weight_addr + i, 1, &w);
    const auto mac = pe_.mac(r.complete, static_cast<std::int8_t>(w), acts[i], acc);
    acc = mac.accumulator;
    t = mac.complete;
  }
  busy_until_ = t;
  close_windows(t, m, /*uses_pe=*/true);
  if (timing != nullptr) *timing = BurstResult{start, t};
  return acc;
}

void PimModule::settle(Time now) {
  if (mram_.has_value()) mram_->settle(now);
  sram_.settle(now);
  pe_.settle(now);
}

ModuleCounters ModuleCounters::delta(const ModuleCounters& before,
                                     const ModuleCounters& after) {
  ModuleCounters d;
  d.busy_until = after.busy_until - before.busy_until;
  d.mram_on = after.mram_on - before.mram_on;
  d.sram_on = after.sram_on - before.sram_on;
  d.pe_on = after.pe_on - before.pe_on;
  d.mram_anchor = after.mram_anchor - before.mram_anchor;
  d.sram_anchor = after.sram_anchor - before.sram_anchor;
  d.pe_anchor = after.pe_anchor - before.pe_anchor;
  d.mram_reads = after.mram_reads - before.mram_reads;
  d.mram_writes = after.mram_writes - before.mram_writes;
  d.sram_reads = after.sram_reads - before.sram_reads;
  d.sram_writes = after.sram_writes - before.sram_writes;
  d.macs = after.macs - before.macs;
  return d;
}

ModuleCounters PimModule::counters() const {
  ModuleCounters c;
  c.busy_until = busy_until_;
  if (mram_.has_value()) {
    c.mram_on = mram_->total_on_time();
    c.mram_anchor = mram_->leakage_anchor();
    c.mram_reads = mram_->read_count();
    c.mram_writes = mram_->write_count();
  }
  c.sram_on = sram_.total_on_time();
  c.sram_anchor = sram_.leakage_anchor();
  c.sram_reads = sram_.read_count();
  c.sram_writes = sram_.write_count();
  c.pe_on = pe_.total_on_time();
  c.pe_anchor = pe_.leakage_anchor();
  c.macs = pe_.mac_count();
  return c;
}

void PimModule::fast_forward(const ModuleCounters& per_period, int repeats) {
  // A module (or tracker) untouched over the recorded interval has a zero
  // delta; shifting by zero keeps its state correct. Each tracker shifts by
  // its *own* observed anchor delta — per-burst-gated trackers advance one
  // period per task, retention trackers held at constant power stay frozen
  // until the slice-end settle (see ModuleCounters).
  const auto reps = static_cast<std::int64_t>(repeats);
  busy_until_ += per_period.busy_until * reps;
  if (mram_.has_value()) {
    mram_->fast_forward(per_period.mram_anchor * reps, per_period.mram_on * reps,
                        per_period.mram_reads * static_cast<std::uint64_t>(repeats),
                        per_period.mram_writes * static_cast<std::uint64_t>(repeats));
  }
  sram_.fast_forward(per_period.sram_anchor * reps, per_period.sram_on * reps,
                     per_period.sram_reads * static_cast<std::uint64_t>(repeats),
                     per_period.sram_writes * static_cast<std::uint64_t>(repeats));
  pe_.fast_forward(per_period.pe_anchor * reps, per_period.pe_on * reps,
                   per_period.macs * static_cast<std::uint64_t>(repeats));
}

void PimModule::reset_accounting() {
  busy_until_ = Time::zero();
  resident_[0] = resident_[1] = 0;
  if (mram_.has_value()) mram_->reset_accounting();
  sram_.reset_accounting();
  pe_.reset_accounting();
}

}  // namespace hhpim::pim
