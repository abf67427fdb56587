#include "exp/result.hpp"

#include <sstream>
#include <stdexcept>

#include "common/serialize.hpp"

namespace hhpim::exp {

const RunResult* ResultSet::find(const std::string& arch, const std::string& model,
                                 const std::string& scenario,
                                 const std::string& variant) const {
  for (const RunResult& r : runs_) {
    if (r.arch == arch && r.model == model && r.scenario == scenario &&
        r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

const RunResult& ResultSet::at(const std::string& arch, const std::string& model,
                               const std::string& scenario,
                               const std::string& variant) const {
  const RunResult* r = find(arch, model, scenario, variant);
  if (r == nullptr) {
    throw std::out_of_range("ResultSet::at: no run (" + arch + ", " + model + ", " +
                            scenario + ", '" + variant + "')");
  }
  return *r;
}

ResultSet::MemoCounts ResultSet::memo_counts() const {
  MemoCounts c;
  for (const RunResult& r : runs_) {
    c.exact += r.memo_exact;
    c.replayed += r.memo_replayed;
  }
  return c;
}

void ResultSet::write_json(std::ostream& os, bool include_slices) const {
  const std::string bytes = to_json(include_slices);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ResultSet::to_json(bool include_slices) const {
  std::string out;
  JsonWriter w{out};
  w.begin_object();
  w.field("experiment", experiment_name);
  w.field("run_count", static_cast<std::uint64_t>(runs_.size()));
  w.key("runs");
  w.begin_array();
  for (const RunResult& r : runs_) {
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(r.index));
    if (!r.variant.empty()) w.field("variant", r.variant);
    w.field("arch", r.arch);
    w.field("model", r.model);
    w.field("scenario", r.scenario);
    w.field("seed", r.seed);
    w.field("slice_ps", r.slice_ps);
    w.field("slices", r.slices);
    w.field("tasks", r.tasks);
    w.field("deadline_violations", r.deadline_violations);
    w.field("total_energy_pj", r.total_energy_pj);
    w.field("mean_slice_energy_pj", r.mean_slice_energy_pj);
    w.field("dynamic_energy_pj", r.dynamic_energy_pj);
    w.field("leakage_energy_pj", r.leakage_energy_pj);
    w.field("transfer_energy_pj", r.transfer_energy_pj);
    w.field("total_time_ps", r.total_time_ps);
    w.field("busy_time_ps", r.busy_time_ps);
    w.field("max_busy_ps", r.max_busy_ps);
    w.field("movement_time_ps", r.movement_time_ps);
    if (include_slices && !r.slice_metrics.empty()) {
      w.key("slice_metrics");
      w.begin_array();
      for (const SliceMetrics& s : r.slice_metrics) {
        w.begin_object();
        w.field("slice", s.slice);
        w.field("tasks", s.tasks);
        w.field("busy_ps", s.busy_ps);
        w.field("movement_ps", s.movement_ps);
        w.field("energy_pj", s.energy_pj);
        w.field("deadline_violated", s.deadline_violated);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

void ResultSet::write_csv(std::ostream& os) const {
  CsvWriter w{os};
  w.row({"index", "variant", "arch", "model", "scenario", "seed", "slice_ps", "slices",
         "tasks", "deadline_violations", "total_energy_pj", "mean_slice_energy_pj",
         "dynamic_energy_pj", "leakage_energy_pj", "transfer_energy_pj", "total_time_ps",
         "busy_time_ps", "max_busy_ps", "movement_time_ps"});
  for (const RunResult& r : runs_) {
    w.row({std::to_string(r.index), r.variant, r.arch, r.model, r.scenario,
           std::to_string(r.seed), std::to_string(r.slice_ps), std::to_string(r.slices),
           std::to_string(r.tasks), std::to_string(r.deadline_violations),
           json_number(r.total_energy_pj), json_number(r.mean_slice_energy_pj),
           json_number(r.dynamic_energy_pj), json_number(r.leakage_energy_pj),
           json_number(r.transfer_energy_pj), std::to_string(r.total_time_ps),
           std::to_string(r.busy_time_ps), std::to_string(r.max_busy_ps),
           std::to_string(r.movement_time_ps)});
  }
}

std::string ResultSet::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

}  // namespace hhpim::exp
