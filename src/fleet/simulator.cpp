#include "fleet/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "common/align.hpp"
#include "common/serialize.hpp"
#include "common/threads.hpp"
#include "energy/battery.hpp"
#include "fleet/outcome_cache.hpp"
#include "hhpim/processor_pool.hpp"
#include "placement/lut_cache.hpp"

namespace hhpim::fleet {

FleetSimulator::FleetSimulator(FleetOptions options) : options_(options) {
  if (options_.shard_size == 0) options_.shard_size = 1;
}

placement::LutCache* FleetSimulator::resolve_lut_cache() const {
  return options_.lut_cache != nullptr ? options_.lut_cache
                                       : &placement::LutCache::process_cache();
}

OutcomeCache* FleetSimulator::resolve_outcome_cache() const {
  if (!options_.memoize_devices) return nullptr;
  return options_.outcome_cache != nullptr ? options_.outcome_cache
                                           : &OutcomeCache::process_cache();
}

namespace {

/// Counts a device line's bytes, each value at its bound: at least what a
/// LineWriter writes for the same calls.
struct LineBound {
  std::size_t n = 0;
  template <std::size_t N>
  void text(const char (&)[N]) { n += N - 1; }
  void text(std::string_view s) { n += s.size(); }
  template <typename T>
  void value(T) { n += kJsonNumberMax; }
};

/// Writes a device line at `p`: constant text is copied, values go through
/// std::to_chars (doubles through json_number_to, so non-finite ones print
/// null).
struct LineWriter {
  char* p;
  template <std::size_t N>
  void text(const char (&s)[N]) {
    std::memcpy(p, s, N - 1);
    p += N - 1;
  }
  void text(std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  template <typename Int>
  void value(Int v) { p = std::to_chars(p, p + kJsonNumberMax, v).ptr; }
  void value(double v) { p = json_number_to(p, v); }
};

/// The one JSONL formatter: one whitespace-free JSON object per device,
/// '\n'-terminated. FleetResult::write_jsonl/to_jsonl and the shard files
/// all go through it, so their bytes agree. Every line has the same keys
/// in the same order, so the constant text is a template: the escaped
/// "model" text of each model name is built once, with the constant text
/// around it, and a line copies it and formats only the values.
class DeviceLines {
 public:
  /// `model_names` resolves DeviceResult::model_index.
  explicit DeviceLines(const std::vector<std::string>& model_names) {
    models_.reserve(model_names.size());
    for (const std::string& name : model_names) {
      std::string& text = models_.emplace_back(",\"model\":\"");
      text.append(json_escape(name)).append("\",\"scenario\":\"");
    }
  }

  /// A bound on any device line: every value at its widest, the longest
  /// model and scenario texts, and every optional field.
  [[nodiscard]] std::size_t max_line() const {
    const auto longest = [](const auto& texts) {
      std::size_t n = 0;
      for (const std::string& t : texts) n = std::max(n, t.size());
      return n;
    };
    DeviceResult r;
    r.host_cycles = 1;
    r.latency_slo_ps = 1;
    LineBound bound;
    line(bound, r, {}, {});
    return bound.n + longest(models_) + longest(scenarios());
  }

  /// Appends one line per device, in order. An index outside the model
  /// table (a hand-built or corrupted result) throws std::out_of_range
  /// naming the device.
  void append(std::string& out, std::span<const DeviceResult> devices) const {
    for (const DeviceResult& r : devices) {
      if (r.model_index >= models_.size()) {
        throw std::out_of_range("fleet JSONL: device " + std::to_string(r.id) +
                                " has model index " + std::to_string(r.model_index) +
                                " outside its " + std::to_string(models_.size()) +
                                "-name model table");
      }
      const std::string_view model = models_[r.model_index];
      const std::string_view scenario = scenarios()[static_cast<std::uint8_t>(r.scenario)];
      LineBound bound;
      line(bound, r, model, scenario);
      const std::size_t at = out.size();
      out.resize(at + bound.n);
      LineWriter w{out.data() + at};
      line(w, r, model, scenario);
      out.resize(static_cast<std::size_t>(w.p - out.data()));
    }
  }

 private:
  /// The scenario name of every Scenario byte, escaped, with the constant
  /// text up to the seed.
  static const std::array<std::string, 256>& scenarios() {
    static const std::array<std::string, 256> table = [] {
      std::array<std::string, 256> t;
      for (std::size_t v = 0; v < t.size(); ++v) {
        t[v] = json_escape(workload::to_string(static_cast<workload::Scenario>(v)));
        t[v].append("\",\"seed\":");
      }
      return t;
    }();
    return table;
  }

  /// A key's constant text, then its value.
  template <typename Out, std::size_t N, typename T>
  static void field(Out& o, const char (&key)[N], T v) {
    o.text(key);
    o.value(v);
  }

  /// The line, as text and values in order, for a LineBound or a
  /// LineWriter; `model` and `scenario` are the table texts of the device.
  template <typename Out>
  static void line(Out& o, const DeviceResult& r, std::string_view model,
                   std::string_view scenario) {
    field(o, "{\"device\":", r.id);
    o.text(model);
    o.text(scenario);
    o.value(r.seed);
    field(o, ",\"slice_ps\":", r.slice_ps);
    field(o, ",\"slices_total\":", r.slices_total);
    field(o, ",\"slices_executed\":", r.slices_executed);
    field(o, ",\"tasks\":", r.tasks);
    field(o, ",\"tasks_dropped\":", r.tasks_dropped);
    field(o, ",\"deadline_violations\":", r.deadline_violations);
    field(o, ",\"energy_pj\":", r.energy_pj);
    field(o, ",\"battery_capacity_pj\":", r.battery_capacity_pj);
    field(o, ",\"final_soc\":", r.final_soc);
    field(o, ",\"exhausted_at_slice\":", r.exhausted_at_slice);
    field(o, ",\"mode_switches\":", r.mode_switches);
    field(o, ",\"low_power_slices\":", r.low_power_slices);
    field(o, ",\"busy_time_ps\":", r.busy_time_ps);
    field(o, ",\"max_busy_ps\":", r.max_busy_ps);
    field(o, ",\"movement_time_ps\":", r.movement_time_ps);
    if (r.host_cycles > 0) {
      // Appended only when the firmware co-simulates the RISC-V host, so
      // host-off fleets keep the pre-host line layout byte for byte
      // (pinned by tests/test_host_loop.cpp).
      field(o, ",\"host_cycles\":", r.host_cycles);
    }
    if (r.latency_slo_ps > 0) {
      // Appended only for SLO devices so no-SLO fleets keep the pre-SLO line
      // layout byte for byte (pinned by tests/test_fleet.cpp).
      field(o, ",\"latency_slo_ps\":", r.latency_slo_ps);
      field(o, ",\"tier_switches\":", r.tier_switches);
    }
    o.text("}\n");
  }

  std::vector<std::string> models_;  ///< `,"model":"<escaped>","scenario":"`
};

/// The ordered-chunk pipeline behind write_jsonl and to_jsonl: formats
/// `r.devices` in shard-sized chunks on up to `r.threads` threads and hands
/// each chunk's bytes to `emit` on the calling thread, strictly in chunk
/// order, so the sink is only ever touched by one thread. `emit` returns
/// false to stop: chunks not formatted by then never are.
///
/// Chunk c is formatted into ring slot c % ring. Helper threads claim chunk
/// indices from an atomic counter and wait while their chunk is a whole
/// ring ahead of the writer (its slot still holds an unwritten chunk), so
/// memory is bounded by the ring, not by the fleet. The calling thread is
/// the writer: while its next chunk is not ready it formats an unclaimed
/// chunk whose slot is free, which also makes one thread a plain serial
/// loop. The first exception stops the pipeline and is rethrown after the
/// join.
void format_in_order(const FleetResult& r,
                     const std::function<bool(std::string_view)>& emit) {
  const DeviceLines lines{r.model_names};
  const std::span<const DeviceResult> all{r.devices.begin(), r.devices.size()};
  const std::size_t chunk = std::max<std::size_t>(r.shard_size, 1);
  const std::size_t chunks = (all.size() + chunk - 1) / chunk;
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max(r.threads, 1U), std::max<std::size_t>(chunks, 1)));
  const std::size_t ring = 2 * static_cast<std::size_t>(threads);

  std::vector<std::string> slots(ring);
  std::atomic<std::size_t> next{0};  // the next unclaimed chunk
  // Guarded by `m`: the chunk each slot holds formatted (npos = none), the
  // chunks written so far, and the stop flag with the first error.
  std::mutex m;
  std::vector<std::size_t> ready(ring, std::string::npos);
  std::size_t written = 0;
  bool stop = false;
  std::exception_ptr error;
  std::condition_variable chunk_ready;  // the writer waits on a chunk
  std::condition_variable slot_freed;   // helpers wait on the writer

  const auto halt = [&](std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock{m};
      if (!error) error = std::move(e);
      stop = true;
    }
    chunk_ready.notify_all();
    slot_freed.notify_all();
  };
  const auto format = [&](std::size_t c) {
    try {
      std::string& bytes = slots[c % ring];
      bytes.clear();
      const std::size_t b = c * chunk;
      lines.append(bytes, all.subspan(b, std::min(chunk, all.size() - b)));
    } catch (...) {
      halt(std::current_exception());
      return;
    }
    {
      const std::lock_guard<std::mutex> lock{m};
      ready[c % ring] = c;
    }
    chunk_ready.notify_one();
  };
  const auto helper = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      {
        std::unique_lock<std::mutex> lock{m};
        slot_freed.wait(lock, [&] { return stop || c < written + ring; });
        if (stop) return;
      }
      format(c);
    }
  };
  // True once chunk w sits formatted in its slot, false if stopped.
  const auto await_chunk = [&](std::size_t w) {
    const std::size_t limit = std::min(chunks, w + ring);
    for (;;) {
      std::size_t c = 0;
      {
        std::unique_lock<std::mutex> lock{m};
        if (stop) return false;
        if (ready[w % ring] == w) return true;
        c = next.load();
        if (c >= limit) {
          // Chunk w is claimed and every free slot too: wait for w.
          chunk_ready.wait(lock, [&] { return stop || ready[w % ring] == w; });
          return !stop;
        }
      }
      if (next.compare_exchange_strong(c, c + 1)) format(c);
    }
  };

  std::vector<std::thread> helpers;
  try {
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(helper);
    for (std::size_t w = 0; w < chunks && await_chunk(w); ++w) {
      const bool ok = emit(slots[w % ring]);
      {
        const std::lock_guard<std::mutex> lock{m};
        ++written;
        stop = stop || !ok;
      }
      slot_freed.notify_all();
    }
  } catch (...) {
    halt(std::current_exception());
  }
  halt(nullptr);
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

DeviceResults::Builder::Block DeviceResults::Builder::allocate(std::size_t n) {
  if (n == 0) return nullptr;
  return Block{static_cast<DeviceResult*>(::operator new(n * sizeof(DeviceResult)))};
}

DeviceResults::DeviceResults(std::span<const DeviceResult> results)
    : block_(Builder::allocate(results.size())), size_(results.size()) {
  std::uninitialized_copy(results.begin(), results.end(), block_.get());
}

DeviceResults& DeviceResults::operator=(const DeviceResults& other) {
  if (this != &other) *this = DeviceResults{other};
  return *this;
}

void FleetResult::write_jsonl(std::ostream& os) const {
  format_in_order(*this, [&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(os);
  });
}

std::string FleetResult::to_jsonl() const {
  std::string out;
  // Reserved once at a bound of the whole text, so the text is never
  // regrown (and recopied) by doubling. The bound is about twice a typical
  // line; the tail past the text is never written.
  out.reserve(DeviceLines{model_names}.max_line() * devices.size());
  format_in_order(*this, [&out](std::string_view bytes) {
    out += bytes;
    return true;
  });
  return out;
}

namespace {

void write_summary_stats(JsonWriter& w, const sim::Summary& s) {
  w.begin_object();
  w.field("count", s.count());
  w.field("mean", s.mean());
  w.field("min", s.min());
  w.field("max", s.max());
  w.field("stddev", s.stddev());
  w.end_object();
}

void write_quantiles(JsonWriter& w, const sim::Histogram& h) {
  w.begin_object();
  w.field("p50", h.quantile(0.50));
  w.field("p95", h.quantile(0.95));
  w.field("p99", h.quantile(0.99));
  w.field("samples", h.total());
  w.field("overflow", h.overflow());
  w.end_object();
}

}  // namespace

void FleetResult::write_summary_json(std::ostream& os) const {
  const std::string bytes = summary_to_json();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string FleetResult::summary_to_json() const {
  std::string out;
  JsonWriter w{out};
  w.begin_object();
  w.field("fleet", fleet_name);
  w.field("devices", aggregate.devices);
  w.field("shards", static_cast<std::uint64_t>(shard_count));
  w.field("shard_size", static_cast<std::uint64_t>(shard_size));
  w.field("executed_slices", aggregate.executed_slices);
  w.field("tasks", aggregate.tasks);
  w.field("tasks_dropped", aggregate.tasks_dropped);
  w.field("deadline_violations", aggregate.deadline_violations);
  w.field("exhausted_devices", aggregate.exhausted_devices);
  w.field("mode_switches", aggregate.mode_switches);
  w.field("low_power_slices", aggregate.low_power_slices);
  if (aggregate.host_cycles > 0) {
    // Host-off fleets keep the pre-host summary layout byte for byte.
    w.field("host_cycles", aggregate.host_cycles);
  }
  w.field("lut_builds", lut_builds);
  w.field("lut_shared", lut_shared);
  w.key("device_energy_mj");
  write_summary_stats(w, aggregate.device_energy_mj);
  w.key("final_soc");
  write_summary_stats(w, aggregate.final_soc);
  w.key("busy_us");
  write_summary_stats(w, aggregate.busy_us);
  w.key("busy_frac");
  write_quantiles(w, aggregate.slice_bins.busy_frac);
  w.key("slice_energy_mj");
  write_quantiles(w, aggregate.slice_bins.slice_energy);
  w.end_object();
  out += '\n';
  return out;
}

namespace {

std::string shard_path(const std::string& dir, std::size_t shard) {
  // Room for the widest index: digits10 + 1 digits.
  char name[sizeof "shard-.jsonl" + std::numeric_limits<std::size_t>::digits10 + 1];
  std::snprintf(name, sizeof name, "shard-%05zu.jsonl", shard);
  return dir + "/" + name;
}

/// What the aggregate reads of one slice of a recorded device.
struct SliceSample {
  std::int64_t busy_ps = 0;
  double energy_pj = 0.0;
};

/// A device's run, recorded for whole-device replay: its result (id and
/// seed are the recorded device's) and its slices in order.
struct DeviceRecord {
  DeviceResult result;
  std::vector<SliceSample> slices;
};

/// A walk_run_inputs visitor appending each key field's bytes to `out`:
/// equal bytes mean equal fields.
struct RunKeyWriter {
  std::string& out;
  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void key(T v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void key(const std::string& s) {
    key(s.size());
    out.append(s);
  }
  void key(const std::vector<int>& v) {
    key(v.size());
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(int));
  }
  template <class T>
  void echo(const T&) {}
};

/// Hashes run keys, also as string_views (lookups build no string).
struct RunKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

}  // namespace

FleetResult FleetSimulator::run(const FleetSpec& spec) const {
  FleetResult result;
  (void)drive(spec, spec.slices, nullptr, &result);
  return result;
}

FleetSnapshot FleetSimulator::run_to(const FleetSpec& spec, int end_slice,
                                     const FleetSnapshot* from) const {
  const int start = from != nullptr ? from->next_slice : 0;
  if (end_slice <= start || end_slice > spec.slices) {
    throw std::invalid_argument(
        "FleetSimulator::run_to: end_slice must lie in (" +
        std::to_string(start) + ", " + std::to_string(spec.slices) + "]");
  }
  return drive(spec, end_slice, from, nullptr);
}

FleetResult FleetSimulator::resume(const FleetSpec& spec,
                                   const FleetSnapshot& from) const {
  FleetResult result;
  (void)drive(spec, spec.slices, &from, &result);
  return result;
}

FleetSnapshot FleetSimulator::drive(const FleetSpec& spec, int end_slice,
                                    const FleetSnapshot* from,
                                    FleetResult* final_out) const {
  const bool final_segment = final_out != nullptr;
  // Devices are expanded where they are used, one at a time into a reused
  // spec: nothing fleet-sized is built here, on one thread.
  const DeviceExpander expander{spec};
  const std::vector<nn::Model> models = spec.resolved_models();
  const std::vector<sys::SystemConfig> firmwares = spec.resolved_firmware();
  const std::size_t n_models = models.size();
  // The global load envelope, resolved once and shared read-only by every
  // worker (empty = no envelope).
  const std::vector<double> env = spec.envelope_multipliers();
  placement::LutCache* const cache = resolve_lut_cache();
  OutcomeCache* const memo = resolve_outcome_cache();
  const std::uint64_t digest = spec.content_digest();
  const std::size_t n = expander.size();
  const auto pair_of = [n_models](const DeviceSpec& ds) {
    return ds.firmware_index * n_models + ds.model_index;
  };

  // Per-pair constants: the resolved firmware config and its processor
  // reuse key (the pool's key and the memo states' machine), plus — filled
  // below for used pairs only, since building an unused pair's LUT would
  // cost a build nobody needs — the fresh processor's memo state, slice
  // length and LUT.
  struct PairInfo {
    sys::SystemConfig config;
    std::uint64_t reuse_key = 0;
    const State* fresh = nullptr;  ///< a fresh processor's state (memo on)
    std::int64_t slice_ps = 0;
    /// The pair's LUT (null unless HH-PIM): immutable, kept alive by the
    /// pool's processors for the whole call.
    const placement::AllocationLut* lut = nullptr;
  };
  const std::size_t n_pairs = firmwares.size() * n_models;
  std::vector<PairInfo> pairs(n_pairs);
  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    PairInfo& info = pairs[pair];
    info.config = firmwares[pair / n_models];
    info.config.lut_cache = cache;
    info.reuse_key = sys::processor_reuse_key(info.config, models[pair % n_models]);
  }

  // With the memo on, each live device's blob resolved to its memo state,
  // once per distinct (blob, machine): devices at one state share a blob.
  std::vector<const State*> resumed;
  if (from != nullptr) {
    if (from->spec_digest != digest) {
      throw std::runtime_error(
          "snapshot: spec mismatch — the snapshot's content digest differs "
          "from this FleetSpec's (models, firmware, workload, lifecycle, "
          "battery, envelope or seed changed between segments)");
    }
    if (from->devices.size() != n) {
      throw std::runtime_error("snapshot: device count mismatch");
    }
    // A snapshot stands at a slice in [0, slices] (0: nothing run yet); the
    // field is decoded from a u32, so a forged value of 2^31 or more reads
    // as negative.
    if (from->next_slice < 0 || from->next_slice > spec.slices) {
      throw std::runtime_error("snapshot: next_slice " + std::to_string(from->next_slice) +
                               " lies outside [0, " + std::to_string(spec.slices) + "]");
    }
    // The checksum is recomputable, so it does not vouch for decoded
    // values: a device's identity must match its re-expanded spec (the
    // JSONL writer indexes the model table with it), its lane must be in
    // range, and a live device must stand at this snapshot's slice with its
    // load cursor's words (the cursor is rebuilt at next_k). Every device
    // carries one busy sample per executed slice, and the carried histograms
    // have the spec's shape and one sample per slice executed fleet-wide.
    // Devices not yet started carry no header; start() writes it. A live
    // device's processor blob is checked when it is loaded.
    std::uint64_t executed = 0;
    DeviceSpec ds;
    std::map<std::pair<const std::string*, std::uint64_t>, const State*> resolved;
    if (memo != nullptr) resumed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const DeviceProgress& p = from->devices[i];
      const DeviceResult& r = p.result;
      if (r.slices_executed < 0 ||
          p.busy.size() != static_cast<std::size_t>(r.slices_executed)) {
        throw std::runtime_error("snapshot: device " + std::to_string(i) + " carries " +
                                 std::to_string(p.busy.size()) +
                                 " busy samples for " +
                                 std::to_string(r.slices_executed) + " executed slices");
      }
      executed += static_cast<std::uint64_t>(r.slices_executed);
      if (p.next_k < 0 || p.next_k > r.slices_total) {
        throw std::runtime_error("snapshot: device " + std::to_string(i) + "'s step " +
                                 std::to_string(p.next_k) + " lies outside [0, " +
                                 std::to_string(r.slices_total) + "]");
      }
      if (!p.started && !p.done) continue;
      expander.at(i, ds);
      const bool tier_ok = p.tier == 255 ||
                           p.tier <= static_cast<std::uint8_t>(FrontierTier::kSaver);
      const int slices_total = ds.cfg.slices + (ds.leave_slice >= spec.slices ? 1 : 0);
      if (r.id != ds.id || r.model_index != ds.model_index ||
          r.scenario != ds.scenario || r.seed != ds.seed ||
          r.slices_total != slices_total ||
          p.mode > static_cast<std::uint8_t>(DeviceMode::kLowPower) || !tier_ok) {
        throw std::runtime_error("snapshot: device " + std::to_string(i) +
                                 " does not match its spec (id, model, scenario, "
                                 "seed or slice count) or has an out-of-range "
                                 "mode/tier");
      }
      if (p.done) continue;
      if (p.next_k != from->next_slice - ds.join_slice || p.next_k >= slices_total) {
        throw std::runtime_error("snapshot: live device " + std::to_string(i) +
                                 " is at step " + std::to_string(p.next_k) +
                                 ", not at the snapshot's slice " +
                                 std::to_string(from->next_slice));
      }
      if (workload::LoadStream::randomized(ds.scenario) &&
          p.loads.state() == workload::LoadStream::State{}) {
        throw std::runtime_error("snapshot: live device " + std::to_string(i) +
                                 " has no load cursor state");
      }
      // Range-checked like a battery restore (std::invalid_argument).
      energy::Battery{spec.battery}.restore_charge(Energy::pj(p.charge_pj));
      if (memo != nullptr && p.proc_blob != nullptr) {
        const std::uint64_t machine = pairs[pair_of(ds)].reuse_key;
        const auto [it, fresh] = resolved.try_emplace({p.proc_blob.get(), machine}, nullptr);
        if (fresh) it->second = &memo->intern(machine, *p.proc_blob);
        resumed[i] = it->second;
      }
    }
    const auto check_bins = [executed](const sim::Histogram& carried,
                                       const sim::Histogram& shape, const char* name) {
      if (!carried.same_shape(shape)) {
        throw std::runtime_error(std::string{"snapshot: the carried "} + name +
                                 " histogram's shape differs from the spec's");
      }
      if (carried.total() != executed) {
        throw std::runtime_error(std::string{"snapshot: the carried "} + name +
                                 " histogram holds " + std::to_string(carried.total()) +
                                 " samples for " + std::to_string(executed) +
                                 " executed slices");
      }
    };
    const SliceHistograms shape{spec.histograms};
    check_bins(from->slice_bins.busy_frac, shape.busy_frac, "busy_frac");
    check_bins(from->slice_bins.slice_energy, shape.slice_energy, "slice_energy");
  }

  FleetSnapshot snap;
  snap.spec_digest = digest;
  snap.threads = resolve_threads(options_.threads);
  snap.next_slice = final_segment ? spec.slices : end_slice;
  if (from != nullptr) {
    snap.lut_builds = from->lut_builds;
    snap.lut_counted = from->lut_counted;
    snap.slice_bins = from->slice_bins;  // shape checked above
  } else {
    snap.slice_bins = SliceHistograms{spec.histograms};
  }
  // A bounded segment's devices, filled by the shard workers: each copies
  // its devices' progress from `from` (or starts them) itself.
  if (!final_segment) snap.devices.resize(n);

  // Active = will construct a processor and execute steps this call: not
  // yet finished, and (for a bounded segment) already joined.
  const auto active = [&](std::size_t i, const DeviceSpec& ds) {
    if (from != nullptr && from->devices[i].done) return false;
    return final_segment || ds.join_slice < end_slice;
  };

  // LUT-build accounting, single-threaded before any processor exists: a
  // newly-accounted key absent from the cache counts as one build (this
  // call's workers will build it); rebuilds of an already-accounted key — a
  // later segment in a fresh process with a cold cache — are never
  // re-counted. The count is therefore one per new key at any thread count,
  // and a segmented run's final lut_builds equals the uninterrupted run's.
  // Devices are visited in id order, so keys are counted in the order their
  // first active device appears, and the walk stops once every pair is
  // marked — a few devices into a large fleet.
  std::vector<char> pair_used(n_pairs, 0);
  std::size_t pairs_marked = 0;
  DeviceSpec ds;
  for (std::size_t i = 0; i < n && pairs_marked < n_pairs; ++i) {
    expander.at(i, ds);
    if (!active(i, ds)) continue;
    const std::size_t pair = pair_of(ds);
    if (pair_used[pair] != 0) continue;
    pair_used[pair] = 1;
    ++pairs_marked;
    const sys::SystemConfig& fw = firmwares[ds.firmware_index];
    if (fw.arch.kind != sys::ArchKind::kHhpim) continue;
    const placement::LutCacheKey key = sys::lut_cache_key(fw, models[ds.model_index]);
    if (std::find(snap.lut_counted.begin(), snap.lut_counted.end(), key) !=
        snap.lut_counted.end()) {
      continue;
    }
    if (!cache->contains(key)) ++snap.lut_builds;
    snap.lut_counted.push_back(key);
  }

  sys::ProcessorPool pool;
  for (std::size_t pair = 0; pair < n_pairs; ++pair) {
    if (pair_used[pair] == 0) continue;
    PairInfo& info = pairs[pair];
    const sys::ProcessorPool::Lease lease =
        pool.checkout(info.reuse_key, info.config, models[pair % n_models]);
    if (memo != nullptr) {
      ByteWriter fresh;
      lease.get().save_state(fresh);
      info.fresh = &memo->intern(info.reuse_key, fresh.bytes());
    }
    info.slice_ps = lease.get().slice_length().as_ps();
    info.lut = lease.get().lut();
  }

  const std::size_t shard_size = options_.shard_size;
  const std::size_t shards = n == 0 ? 0 : (n + shard_size - 1) / shard_size;
  if (final_segment) {
    *final_out = FleetResult{.fleet_name = spec.name,
                             .devices = {},
                             .model_names = {},
                             .aggregate = FleetAggregate{spec.histograms},
                             .shard_count = shards,
                             .shard_size = shard_size,
                             .threads = resolve_threads(options_.threads)};
    final_out->model_names.reserve(models.size());
    for (const nn::Model& m : models) final_out->model_names.push_back(m.name());
  }
  // The results' storage, raw: each worker constructs its devices' slots.
  std::optional<DeviceResults::Builder> results;
  if (final_segment && options_.keep_results) results.emplace(n);

  // One slot per shard in every segment (a bounded one keeps only the slice
  // histograms), each on its own cache line: a worker finishing shard s
  // moves its aggregate into slot s while a sibling fills s±1 — without the
  // alignment those writes would false-share a line.
  struct alignas(kCacheLine) ShardSlot {
    std::optional<FleetAggregate> agg;
  };
  std::vector<ShardSlot> shard_aggs(shards);

  // Per-worker buffers, reused across the worker's shards and devices, on
  // their own cache lines: the device in flight is written every slice.
  struct alignas(kCacheLine) Scratch {
    /// The spec of the device in flight, expanded by this worker.
    DeviceSpec device;
    /// run() and resume(): the device in flight (run_to advances devices in
    /// their snapshot slots).
    DeviceProgress progress;
    ByteWriter save;  ///< save_state scratch, reused
    BusyColumn::Index busy_index;  ///< bound to the column of the device in flight
    /// --shard-dir: the shard's JSONL lines, formatted as its devices
    /// finish and written to the shard file in one call.
    std::string jsonl;
    /// Whole-device replay: the run-input key of every device this worker
    /// started in this call, with the run of the key's second device (null
    /// until then, so inputs that never repeat hold no record).
    std::unordered_map<std::string, std::unique_ptr<DeviceRecord>, RunKeyHash, std::equal_to<>>
        records;
    std::string key;                   ///< the device in flight's key
    std::vector<SliceSample> slices;   ///< the slices of a device being recorded
  };
  // This call's memo economy, summed once per shard from run_shard locals
  // (a lookup itself writes nothing shared), and its HH-PIM devices (every
  // device of the fleet, finished in an earlier segment or not), the base
  // of lut_shared.
  std::atomic<std::uint64_t> hhpim_devices{0};
  std::atomic<std::uint64_t> memo_replayed{0};
  std::atomic<std::uint64_t> memo_exact{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> memo_misses{0};
  std::atomic<std::uint64_t> memo_device_replays{0};
  std::atomic<std::uint64_t> memo_device_replay_slices{0};
  // A device that starts in a final segment also finishes in it, so with
  // the memo on it may replay whole.
  const bool replay_whole = final_segment && memo != nullptr;

  // --shard-dir: one line template for the whole call (lines are appended
  // one device at a time, as each finishes).
  std::optional<DeviceLines> lines;
  if (final_segment && !options_.shard_dir.empty()) lines.emplace(final_out->model_names);

  auto run_shard = [&](std::size_t s, Scratch& w) {
    const std::size_t begin = s * shard_size;
    const std::size_t end = std::min(n, begin + shard_size);
    FleetAggregate agg{spec.histograms};
    // Held across consecutive devices of one reuse key; returned to the
    // pool on a key switch or at shard end.
    sys::ProcessorPool::Lease lease;
    std::uint64_t hhpim = 0;
    std::uint64_t replayed = 0;
    std::uint64_t exact = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t device_replays = 0;
    std::uint64_t device_replay_slices = 0;
    w.jsonl.clear();

    // Advances a started device through local steps [p.next_k, k_end) from
    // memo state `state` (its resumed state; a device at step 0 starts from
    // the pair's fresh state). Every slice runs begin_slice once, then one
    // lookup in the current state's row: a hit applies the outcome and moves
    // to its next state; a miss makes the leased processor live (reset at
    // step 0, else Processor::restore of the current state's blob), runs
    // just this slice exact and records it (OutcomeCache::run_exact, the
    // grid's miss step too), published at once. Without the memo there is
    // no state: every slice misses, so the processor goes live once and
    // stays live. Each slice is appended to `record` when it is non-null.
    // Returns true when any slice ran exact.
    const auto advance = [&](const DeviceSpec& ds, DeviceProgress& p, int k_end,
                             const State* state, std::vector<SliceSample>* record) {
      const PairInfo& info = pairs[pair_of(ds)];
      // A bounded segment buffers busy times in the device's column.
      if (!final_segment) w.busy_index.bind(p.busy);
      const auto end = [&](const SliceOutcome& out) {
        p.end_slice(out, agg, final_segment ? nullptr : &w.busy_index);
        if (record != nullptr) record->push_back({out.busy_ps, out.energy_pj});
      };
      const bool slo = Device::slo_active(info.lut, ds.latency_slo_ps);
      const std::int64_t slo_ps = slo ? ds.latency_slo_ps : 0;
      if (p.next_k == 0) state = info.fresh;
      std::optional<Device> dev;  // built on the device's first miss
      bool live = false;          // the leased processor is at `state`
      bool ran_exact = false;
      while (!p.done && p.next_k < k_end) {
        const bool tier_changed = p.begin_slice(spec, ds, slo);
        // The mode/tier begin_slice decided is a key field, not part of the
        // state: the override flip it causes lands in the next state.
        const SliceKey key = p.slice_key(slo_ps);
        if (const SliceOutcome* out = state != nullptr ? state->find(key) : nullptr) {
          ++hits;
          end(*out);
          state = out->next;
          live = false;
          continue;
        }
        ++misses;
        if (!live) {
          const bool same_key = lease && lease.key() == info.reuse_key;
          const bool restoring = p.next_k > 0;  // restore() resets first
          if (!same_key) {
            lease = pool.checkout(info.reuse_key, info.config, models[ds.model_index],
                                  restoring ? sys::ProcessorPool::Reuse::kAsLeft
                                            : sys::ProcessorPool::Reuse::kReset);
          }
          if (restoring) {
            const StateBlob& blob = state != nullptr ? state->blob() : p.proc_blob;
            if (blob == nullptr) {
              throw std::runtime_error("fleet: device " + std::to_string(ds.id) +
                                       " has no processor state to resume from");
            }
            try {
              lease.get().restore(*blob);
            } catch (const std::runtime_error& e) {
              throw std::runtime_error("fleet: device " + std::to_string(ds.id) + ": " +
                                       e.what());
            }
          } else if (same_key) {
            lease.get().reset();
          }
          if (!dev) dev.emplace(spec, ds, models[ds.model_index], lease.get());
          live = true;
        }
        dev->place(p, tier_changed);
        // With the memo, record the slice and its next state, for every
        // device (this one included) that reaches this state and key.
        const SliceOutcome out = memo != nullptr
                                     ? memo->run_exact(*state, key, lease.get(), w.save)
                                     : SliceOutcome::of(lease.get().run_slice(p.buffered));
        state = out.next;
        end(out);
        ran_exact = true;
      }
      if (final_segment || p.done) {
        p.proc_blob.reset();  // finished devices carry no processor blob
      } else if (state != nullptr) {
        p.proc_blob = state->blob();
      } else if (live) {
        w.save.clear();
        lease.get().save_state(w.save);
        p.proc_blob = std::make_shared<const std::string>(w.save.bytes());
      }
      if (!final_segment) {
        // The snapshot outlives this call's envelope: its cursor keeps only
        // the generator words, and the next segment rebuilds it.
        p.loads = workload::LoadStream{p.done ? workload::LoadStream::State{}
                                              : p.loads.state()};
      }
      return ran_exact;
    };

    // Accounts a finished device's totals at its ordinal position, after
    // its slices' busy times: the device-major order of one uninterrupted
    // run.
    const auto finish = [&](std::size_t i, const DeviceResult& r) {
      agg.add_device(r);
      if (results) results->set(i, r);
      if (lines) lines->append(w.jsonl, {&r, 1});
    };
    // Device i replays `record`: its slices in order, as end_slice fed the
    // recorded device's, then the recorded result under this device's id
    // and seed (the only fields walk_run_inputs echoes into a result).
    const auto replay = [&](std::size_t i, const DeviceSpec& ds, const DeviceRecord& record) {
      for (const SliceSample& s : record.slices) {
        agg.add_busy(s.busy_ps);
        agg.slice_bins.add(s.busy_ps, record.result.slice_ps, s.energy_pj);
      }
      DeviceResult r = record.result;
      r.id = ds.id;
      r.seed = ds.seed;
      finish(i, r);
      ++replayed;
      ++device_replays;
      device_replay_slices += record.slices.size();
    };

    for (std::size_t i = begin; i < end; ++i) {
      expander.at(i, w.device);
      const DeviceSpec& ds = w.device;
      if (firmwares[ds.firmware_index].arch.kind == sys::ArchKind::kHhpim) ++hhpim;
      const DeviceProgress* src = from != nullptr ? &from->devices[i] : nullptr;
      if (!active(i, ds)) {
        // Finished in an earlier segment (the final one accounts its stored
        // result) or not joined yet (carried to the next snapshot as is).
        if (final_segment) {
          agg.add_busy(src->busy);
          finish(i, src->result);
        } else if (src != nullptr) {
          snap.devices[i] = *src;
        }
        continue;
      }
      DeviceProgress& p = final_segment ? w.progress : snap.devices[i];
      const int k_end = final_segment ? std::numeric_limits<int>::max()
                                      : end_slice - ds.join_slice;
      // A bounded segment's fresh progress gets its busy column sized for
      // every slice the device can still run here, before the copy or start,
      // so end_slice never regrows it by doubling.
      const auto reserve_busy = [&](std::size_t executed, int next_k, int slices_total) {
        if (final_segment) return;
        const int to_run = std::max(0, std::min(k_end, slices_total) - next_k);
        p.busy.reserve(executed + static_cast<std::size_t>(to_run));
      };
      // With replay_whole: the device's entry in w.records, set when this
      // device is its key's second and its run is to be recorded.
      std::unique_ptr<DeviceRecord>* record = nullptr;
      if (src != nullptr && src->started) {
        reserve_busy(src->busy.size(), src->next_k, src->result.slices_total);
        p = *src;
        p.loads = resume_load_stream(ds, env, p.next_k, p.loads.state());
        if (final_segment) {
          // The stored samples go first; end_slice feeds the rest as they run.
          agg.add_busy(p.busy);
          p.busy.clear();
        }
      } else {
        if (replay_whole && !workload::LoadStream::randomized(ds.scenario)) {
          w.key.clear();
          RunKeyWriter keys{w.key};
          walk_run_inputs(keys, ds);
          const auto it = w.records.find(std::string_view{w.key});
          if (it == w.records.end()) {
            w.records.emplace(w.key, nullptr);  // first sighting: the key only
          } else if (it->second != nullptr) {
            replay(i, ds, *it->second);
            continue;
          } else {
            record = &it->second;
            w.slices.clear();
          }
        }
        p.start(spec, ds, pairs[pair_of(ds)].slice_ps, env);
        reserve_busy(0, 0, p.result.slices_total);
      }
      if (advance(ds, p, k_end, resumed.empty() ? nullptr : resumed[i],
                  record != nullptr ? &w.slices : nullptr)) {
        ++exact;
      } else {
        ++replayed;
      }
      if (final_segment) finish(i, p.result);
      // Stored only once the run is complete: a run that throws leaves none.
      if (record != nullptr) *record = std::make_unique<DeviceRecord>(p.result, w.slices);
    }
    hhpim_devices.fetch_add(hhpim, std::memory_order_relaxed);
    if (memo != nullptr) {
      memo_replayed.fetch_add(replayed, std::memory_order_relaxed);
      memo_exact.fetch_add(exact, std::memory_order_relaxed);
      memo_hits.fetch_add(hits, std::memory_order_relaxed);
      memo_misses.fetch_add(misses, std::memory_order_relaxed);
      memo_device_replays.fetch_add(device_replays, std::memory_order_relaxed);
      memo_device_replay_slices.fetch_add(device_replay_slices, std::memory_order_relaxed);
    }

    if (lines) {
      // The lines sit in the worker's buffer; write the file in one call:
      // no handoff ever blocks a sibling worker.
      const std::string path = shard_path(options_.shard_dir, s);
      std::ofstream out(path, std::ios::binary);
      if (!out) throw std::runtime_error("fleet: cannot open " + path);
      out.write(w.jsonl.data(), static_cast<std::streamsize>(w.jsonl.size()));
      out.close();
      if (!out) throw std::runtime_error("fleet: write failed for " + path);
    }
    shard_aggs[s].agg.emplace(std::move(agg));
  };

  const unsigned workers = resolve_workers(options_.threads, shards);
  std::vector<Scratch> scratch(workers);
  claim_each(shards, workers,
             [&](unsigned worker, std::size_t s) { run_shard(s, scratch[worker]); });
  if (!final_segment) {
    for (const ShardSlot& slot : shard_aggs) snap.slice_bins.merge(slot.agg->slice_bins);
    return snap;
  }
  if (results) final_out->devices = std::move(*results).finish();

  // Merge in shard-index order: Summary merges are order-sensitive in the
  // last floating-point bit, so a fixed order keeps output byte-identical
  // at any thread count. The earlier segments' slices are binned in `snap`.
  for (const ShardSlot& slot : shard_aggs) final_out->aggregate.merge(*slot.agg);
  final_out->aggregate.slice_bins.merge(snap.slice_bins);
  // Shared: the devices that ran on a LUT they didn't build. Only HH-PIM
  // devices resolve through the LUT cache; static archs in a mixed-firmware
  // fleet never share a build.
  const std::uint64_t hhpim = hhpim_devices.load(std::memory_order_relaxed);
  final_out->lut_builds = snap.lut_builds;
  final_out->lut_shared = hhpim >= snap.lut_builds ? hhpim - snap.lut_builds : 0;
  final_out->memo_replayed_devices = memo_replayed.load(std::memory_order_relaxed);
  final_out->memo_exact_devices = memo_exact.load(std::memory_order_relaxed);
  final_out->memo_hits = memo_hits.load(std::memory_order_relaxed);
  final_out->memo_misses = memo_misses.load(std::memory_order_relaxed);
  final_out->memo_device_replays = memo_device_replays.load(std::memory_order_relaxed);
  final_out->memo_device_replay_slices =
      memo_device_replay_slices.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace hhpim::fleet
