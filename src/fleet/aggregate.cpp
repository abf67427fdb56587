#include "fleet/aggregate.hpp"

#include "fleet/device.hpp"

namespace hhpim::fleet {

FleetAggregate::FleetAggregate(const AggregateShape& shape)
    : busy_frac_(0.0, shape.busy_frac_max, shape.busy_frac_bins),
      energy_(0.0, shape.slice_energy_mj_max, shape.slice_energy_bins) {}

void FleetAggregate::add_slice(double busy_frac, double busy_time_us,
                               double energy_mj) {
  busy_frac_.add(busy_frac);
  busy_us.add(busy_time_us);
  energy_.add(energy_mj);
}

void FleetAggregate::add_device(const DeviceResult& r) {
  ++devices;
  executed_slices += static_cast<std::uint64_t>(r.slices_executed);
  tasks += r.tasks;
  tasks_dropped += r.tasks_dropped;
  deadline_violations += r.deadline_violations;
  if (r.exhausted_at_slice >= 0) ++exhausted_devices;
  mode_switches += r.mode_switches;
  low_power_slices += static_cast<std::uint64_t>(r.low_power_slices);
  host_cycles += r.host_cycles;
  device_energy_mj.add(r.energy_pj * 1e-9);
  final_soc.add(r.final_soc);
}

void FleetAggregate::add_finished_device(const DeviceProgress& p) {
  const Time slice = Time::ps(p.result.slice_ps);
  for (std::size_t k = 0; k < p.sample_busy_ps.size(); ++k) {
    const Time busy = Time::ps(p.sample_busy_ps[k]);
    add_slice(busy / slice, busy.as_us(), Energy::pj(p.sample_energy_pj[k]).as_mj());
  }
  add_device(p.result);
}

void FleetAggregate::merge(const FleetAggregate& o) {
  devices += o.devices;
  executed_slices += o.executed_slices;
  tasks += o.tasks;
  tasks_dropped += o.tasks_dropped;
  deadline_violations += o.deadline_violations;
  exhausted_devices += o.exhausted_devices;
  mode_switches += o.mode_switches;
  low_power_slices += o.low_power_slices;
  host_cycles += o.host_cycles;
  device_energy_mj.merge(o.device_energy_mj);
  final_soc.merge(o.final_soc);
  busy_us.merge(o.busy_us);
  busy_frac_.merge(o.busy_frac_);
  energy_.merge(o.energy_);
}

}  // namespace hhpim::fleet
