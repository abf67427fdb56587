// Cold-start benchmark program: runs one named workload from process start to
// checked output bytes and prints one JSON line of metrics.
//
//   coldbench --workload=fleet-steady|fleet-week|grid-dse [--seed=N]
//             [--threads=4] [--size=full|tiny] [--expect=HEX] [--trace=PATH]
//
// Every run starts cold: a private placement::LutCache and fleet::OutcomeCache,
// both empty. It calls only the public hhpim::* APIs. Outputs (fleet
// JSONL + summary, grid JSON + CSV) are serialized into a 64 KiB in-memory
// buffer that is digested as it fills; nothing is written to disk except the
// trace file. With --expect the digest is compared before the clock stops.
//
// With --trace the program also keeps a span around each library call it makes
// (name, start, end, parent, thread) and writes them as Chrome trace-event
// JSON, reads the counters the modules expose, and runs two measurement
// passes after the timed part: fleet::device_loads_into over every device, and
// per-call sys::Processor::run_slice timing on one probe device per model.
// See coldbench/README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fleet/device.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet/snapshot.hpp"
#include "fleet/spec.hpp"
#include "hhpim/processor.hpp"
#include "mem/nvsim_lite.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "workload/scenario.hpp"

using namespace hhpim;

namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization: the closest in-process point to
// process start. Every span and wall_s is measured from here.
const Clock::time_point kProcessStart = Clock::now();

double since_start_s(Clock::time_point t) {
  return std::chrono::duration<double>(t - kProcessStart).count();
}

// ---------------------------------------------------------------------------
// Spans

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;
  unsigned tid = 0;
};

/// In-memory span store. Spans always measure their duration (the metrics
/// need it); they are kept only when tracing is on.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(SpanRecord r) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock{mu_};
    r.tid = thread_index_locked();
    spans_.push_back(std::move(r));
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open directly.
  void write_chrome_json(std::ostream& os) const {
    const std::lock_guard<std::mutex> lock{mu_};
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans_) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                    s.tid, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
      os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"cat\":\"coldbench\"," << buf << "\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"workload\":\"" << workload_
         << "\"}}";
      first = false;
    }
    os << "\n]}\n";
  }

 private:
  unsigned thread_index_locked() {
    const auto self = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == self) return static_cast<unsigned>(i);
    }
    threads_.push_back(self);
    return static_cast<unsigned>(threads_.size() - 1);
  }

  const bool enabled_;
  const std::string workload_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::thread::id> threads_;
};

thread_local int t_current_span = -1;

/// Scoped span: starts on construction, ends on end() or destruction. Nested
/// spans on one thread take the enclosing span as parent; a span opened on a
/// worker thread names its parent explicitly.
class Span {
 public:
  static constexpr int kEnclosing = -2;  ///< parent = this thread's open span

  Span(Tracer& tracer, std::string name, int parent = kEnclosing)
      : tracer_(tracer), prev_(t_current_span) {
    rec_.name = std::move(name);
    rec_.id = tracer_.next_id();
    rec_.parent = parent == kEnclosing ? t_current_span : parent;
    t_current_span = rec_.id;
    start_ = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double end() {
    if (!open_) return seconds_;
    const Clock::time_point stop = Clock::now();
    open_ = false;
    seconds_ = std::chrono::duration<double>(stop - start_).count();
    rec_.start_s = since_start_s(start_);
    rec_.end_s = since_start_s(stop);
    t_current_span = prev_;
    tracer_.record(std::move(rec_));
    return seconds_;
  }
  [[nodiscard]] int id() const { return rec_.id; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  int prev_;
  Clock::time_point start_;
  bool open_ = true;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Output digest

/// std::streambuf that digests everything written through it, 64 KiB at a
/// time, and keeps none of it. The digest folds 8-byte little-endian words
/// (rotate, xor, multiply) and the byte count through a SplitMix64
/// finalizer — a check digest, not a cryptographic one.
class DigestBuf : public std::streambuf {
 public:
  DigestBuf() { setp(buf_, buf_ + sizeof buf_); }

  [[nodiscard]] std::uint64_t bytes() const {
    return digested_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

  /// Digest of every byte written so far (flushes the buffer).
  std::uint64_t finish() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    std::fill(pptr(), pptr() + ((8 - n % 8) % 8), '\0');
    absorb(n + (8 - n % 8) % 8);
    digested_ += n;
    setp(buf_, buf_ + sizeof buf_);
    SplitMix64 fin{h_ ^ digested_};
    return fin.next();
  }

 protected:
  int_type overflow(int_type c) override {
    absorb(sizeof buf_);
    digested_ += sizeof buf_;
    setp(buf_, buf_ + sizeof buf_);
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void absorb(std::size_t n) {  // n is a multiple of 8
    for (std::size_t i = 0; i < n; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf_ + i, 8);
      h_ = (std::rotl(h_, 23) ^ w) * 0x9e3779b97f4a7c15ULL;
    }
  }

  alignas(8) char buf_[1 << 16];
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t digested_ = 0;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Process facts

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// The run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned threads = 4;
  bool tiny = false;
  std::string expect;  ///< expected digest (hex); empty = not checked
};

/// Per-layer metrics, in the order BENCHMARK.json lists them. Layers a
/// workload does not exercise stay 0.
struct Layers {
  std::vector<std::pair<std::string, double>> values;
  Layers() {
    for (const char* name :
         {"placement.lut_builds", "placement.lut_hits", "placement.lut_build_s",
          "placement.lut_build_max_s", "fleet.expand_s", "exp.expand_s",
          "workload.device_loads_s", "fleet.run_s", "fleet.run_cpu_util",
          "fleet.memo_replayed", "fleet.memo_exact", "fleet.memo_hit_rate",
          "fleet.segment_s", "fleet.segment_max_s", "fleet.snapshot_encode_s",
          "fleet.snapshot_decode_s", "fleet.snapshot_bytes",
          "hhpim.run_slice_us_p50", "hhpim.run_slice_us_p99", "exp.run_s",
          "serialize.jsonl_s", "serialize.jsonl_bytes", "serialize.summary_s",
          "serialize.grid_s"}) {
      values.emplace_back(name, 0.0);
    }
  }
  double& operator[](const std::string& name) {
    for (auto& [n, v] : values) {
      if (n == name) return v;
    }
    throw std::logic_error("unknown layer metric " + name);
  }
};

struct Result {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t ops = 0;          ///< devices (fleet) or runs (grid)
  std::uint64_t sim_slices = 0;   ///< device-slices or run-slices executed
  double energy_mj = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t deadline_misses = 0;
  double savings_pct = std::nan("");  ///< grid-dse only
  std::uint64_t digest = 0;
  std::uint64_t output_bytes = 0;
  bool digest_ok = false;
  Layers layers;
};

struct Context {
  const Options& opt;
  Tracer& tracer;
  Result& res;
  placement::LutCache lut_cache;  // private and cold, as in fleet_sim
};

/// Digests the workload's output, checks it against --expect and stops the
/// wall clock: everything after this is measurement, not workload.
void close_output(Context& ctx, const std::ostream& out, DigestBuf& buf) {
  if (!out) throw std::runtime_error("output stream failed");
  Result& res = ctx.res;
  res.output_bytes = buf.bytes();
  res.digest = buf.finish();
  res.digest_ok = ctx.opt.expect.empty() || ctx.opt.expect == hex64(res.digest);
  res.wall_s = since_start_s(Clock::now());
}

/// One processor to construct during set-up: its construction builds the
/// (config, model) LUT into the run's cache.
struct WarmJob {
  sys::SystemConfig config;
  const nn::Model* model = nullptr;
};

/// Builds every LUT the workload needs by constructing one sys::Processor
/// per distinct (config, model) on the run's cache, spread across the
/// workload's threads. Jobs whose arch carries a LUT (HH-PIM) go first.
void warm_luts(Context& ctx, std::vector<WarmJob> jobs) {
  std::stable_partition(jobs.begin(), jobs.end(), [](const WarmJob& j) {
    return j.config.arch.kind == sys::ArchKind::kHhpim;
  });
  Span warm{ctx.tracer, "placement.warmup"};
  std::vector<double> lut_seconds(jobs.size(), -1.0);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
      try {
        Span span{ctx.tracer, "hhpim.Processor", warm.id()};
        const sys::Processor proc{jobs[i].config, *jobs[i].model};
        const double s = span.end();
        if (proc.lut() != nullptr) lut_seconds[i] = s;
      } catch (...) {
        const std::lock_guard<std::mutex> lock{error_mu};
        if (!error) error = std::current_exception();
      }
    }
  };
  const unsigned n = std::max(1u, std::min<unsigned>(
                                      ctx.opt.threads,
                                      static_cast<unsigned>(jobs.size())));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < n; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  for (const double s : lut_seconds) {
    if (s < 0.0) continue;
    ctx.res.layers["placement.lut_build_s"] += s;
    ctx.res.layers["placement.lut_build_max_s"] =
        std::max(ctx.res.layers["placement.lut_build_max_s"], s);
  }
}

void read_lut_stats(Context& ctx) {
  const placement::LutCache::Stats st = ctx.lut_cache.stats();
  ctx.res.layers["placement.lut_builds"] = static_cast<double>(st.misses);
  ctx.res.layers["placement.lut_hits"] = static_cast<double>(st.hits);
}

/// Per-call run_slice latency (microseconds) over one probe processor per
/// (config, model), each replaying `loads`.
void probe_run_slice(Context& ctx, const std::vector<WarmJob>& probes,
                     const std::vector<int>& loads) {
  Span probe{ctx.tracer, "hhpim.run_slice_probe"};
  std::vector<double> us;
  us.reserve(probes.size() * loads.size());
  for (const WarmJob& p : probes) {
    sys::Processor proc{p.config, *p.model};
    for (const int n : loads) {
      const Clock::time_point t0 = Clock::now();
      (void)proc.run_slice(n);
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
  }
  ctx.res.layers["hhpim.run_slice_us_p50"] = percentile(us, 0.50);
  ctx.res.layers["hhpim.run_slice_us_p99"] = percentile(us, 0.99);
}

// --- fleet workloads --------------------------------------------------------

fleet::FleetSpec fleet_week_spec(std::uint64_t seed, bool tiny) {
  fleet::FleetSpec spec;
  spec.name = "fleet-week";
  spec.devices = tiny ? 64 : 10000;
  spec.slices = tiny ? 24 : 672;
  spec.seed = seed;
  spec.battery.capacity = Energy::mj(2000.0);
  spec.charging.period = 96;
  spec.charging.window = 24;
  spec.charging.energy_per_slice = Energy::mj(40.0);
  spec.envelope.enabled = true;
  spec.envelope.shape = workload::Scenario::kPulsing;
  spec.envelope.min_multiplier = 0.5;
  spec.envelope.max_multiplier = 1.5;
  spec.envelope.seed = SplitMix64{seed}.next();
  spec.lifecycle.join_fraction = 0.2;
  spec.lifecycle.leave_fraction = 0.2;
  return spec;
}

fleet::FleetSpec fleet_steady_spec(std::uint64_t seed, bool tiny) {
  fleet::FleetSpec spec;
  spec.name = "fleet-steady";
  spec.devices = tiny ? 64 : 300000;
  spec.slices = 20;
  spec.seed = seed;
  spec.battery.capacity = Energy::mj(2500.0);
  return spec;
}

/// Loads of the first fleet-week device (same seed) that stays for the
/// whole week: what the run_slice probe replays on every workload.
std::vector<int> probe_loads(std::uint64_t seed, bool tiny) {
  const fleet::FleetSpec week = fleet_week_spec(seed, tiny);
  const std::vector<double> env = week.envelope_multipliers();
  std::vector<int> loads;
  for (const fleet::DeviceSpec& ds : week.expand()) {
    if (ds.join_slice == 0 && ds.leave_slice == week.slices) {
      fleet::device_loads_into(ds, env, loads);
      return loads;
    }
  }
  throw std::runtime_error("fleet-week spec has no full-week device");
}

void run_fleet(Context& ctx, const fleet::FleetSpec& spec, int checkpoint_every,
               std::size_t shard_size) {
  Result& res = ctx.res;
  Layers& L = res.layers;

  Span setup{ctx.tracer, "setup"};
  std::vector<fleet::DeviceSpec> devices;
  {
    Span s{ctx.tracer, "fleet.FleetSpec::expand"};
    devices = spec.expand();
    L["fleet.expand_s"] = s.end();
  }
  const std::vector<nn::Model> models = spec.resolved_models();
  std::vector<WarmJob> jobs;
  for (const nn::Model& m : models) {
    jobs.push_back({fleet::Device::device_config(spec, &ctx.lut_cache), &m});
  }
  warm_luts(ctx, jobs);
  setup.end();
  res.setup_s = since_start_s(Clock::now());

  fleet::OutcomeCache memo;  // private and cold, as in fleet_sim
  fleet::FleetOptions fo;
  fo.threads = ctx.opt.threads;
  fo.shard_size = shard_size;
  fo.lut_cache = &ctx.lut_cache;
  fo.outcome_cache = &memo;
  const fleet::FleetSimulator sim{fo};

  // fleet.run_s and fleet.run_cpu_util cover the simulator calls only, not
  // the snapshot codec between segments.
  fleet::FleetResult result;
  double run_cpu = 0.0;
  const auto simulate = [&](const char* name, const auto& call) {
    Span s{ctx.tracer, name};
    const double cpu0 = cpu_seconds();
    call();
    run_cpu += cpu_seconds() - cpu0;
    const double t = s.end();
    L["fleet.run_s"] += t;
    return t;
  };
  if (checkpoint_every <= 0) {
    simulate("fleet.FleetSimulator::run", [&] { result = sim.run(spec); });
  } else {
    fleet::FleetSnapshot snap;
    const auto segment = [&](const char* name, const auto& call) {
      const double t = simulate(name, call);
      L["fleet.segment_s"] += t;
      L["fleet.segment_max_s"] = std::max(L["fleet.segment_max_s"], t);
    };
    for (int end = checkpoint_every; end < spec.slices; end += checkpoint_every) {
      const bool first = end == checkpoint_every;
      segment("fleet.FleetSimulator::run_to",
              [&] { snap = sim.run_to(spec, end, first ? nullptr : &snap); });
      std::string bytes;
      {
        Span s{ctx.tracer, "fleet.FleetSnapshot::to_bytes"};
        bytes = snap.to_bytes();
        L["fleet.snapshot_encode_s"] += s.end();
      }
      L["fleet.snapshot_bytes"] += static_cast<double>(bytes.size());
      {
        Span s{ctx.tracer, "fleet.FleetSnapshot::from_bytes"};
        snap = fleet::FleetSnapshot::from_bytes(bytes);
        L["fleet.snapshot_decode_s"] += s.end();
      }
    }
    segment("fleet.FleetSimulator::resume", [&] { result = sim.resume(spec, snap); });
  }
  L["fleet.run_cpu_util"] = run_cpu / L["fleet.run_s"];

  DigestBuf buf;
  std::ostream out{&buf};
  {
    Span s{ctx.tracer, "fleet.FleetResult::write_jsonl"};
    result.write_jsonl(out);
    L["serialize.jsonl_s"] = s.end();
  }
  L["serialize.jsonl_bytes"] = static_cast<double>(buf.bytes());
  {
    Span s{ctx.tracer, "fleet.FleetResult::write_summary_json"};
    result.write_summary_json(out);
    L["serialize.summary_s"] = s.end();
  }
  close_output(ctx, out, buf);

  const fleet::FleetAggregate& a = result.aggregate;
  res.ops = static_cast<std::uint64_t>(spec.devices);
  if (a.devices != res.ops) throw std::runtime_error("fleet lost devices");
  res.sim_slices = a.executed_slices;
  res.energy_mj = a.device_energy_mj.sum();
  res.tasks = a.tasks;
  res.deadline_misses = a.deadline_violations;
  L["fleet.memo_replayed"] = static_cast<double>(result.memo_replayed_devices);
  L["fleet.memo_exact"] = static_cast<double>(result.memo_exact_devices);
  const std::uint64_t lookups = result.memo_hits + result.memo_misses;
  L["fleet.memo_hit_rate"] =
      lookups > 0 ? static_cast<double>(result.memo_hits) / static_cast<double>(lookups)
                  : 0.0;

  if (!ctx.tracer.enabled()) return;
  Span measure{ctx.tracer, "measure (after wall_s)"};
  read_lut_stats(ctx);
  {
    // Trace regeneration over every device, timed on its own.
    Span s{ctx.tracer, "workload.device_loads_into"};
    const std::vector<double> env = spec.envelope_multipliers();
    std::vector<int> loads;
    std::uint64_t sink = 0;
    for (const fleet::DeviceSpec& ds : devices) {
      fleet::device_loads_into(ds, env, loads);
      sink += loads.size();
    }
    L["workload.device_loads_s"] = s.end();
    if (sink == 0) throw std::runtime_error("no device loads generated");
  }
  probe_run_slice(ctx, jobs, probe_loads(ctx.opt.seed, ctx.opt.tiny));
}

// --- grid workload ----------------------------------------------------------

void run_grid(Context& ctx) {
  Result& res = ctx.res;
  Layers& L = res.layers;
  const bool tiny = ctx.opt.tiny;

  workload::ScenarioConfig wc;
  wc.slices = 96;
  exp::ExperimentSpec spec;
  spec.name = "grid-dse";
  spec.seed = ctx.opt.seed;
  const auto table1 = sys::ArchConfig::paper_table1();
  spec.archs.assign(table1.begin(), table1.end());
  spec.models = nn::zoo::paper_models();
  for (const workload::Scenario s : workload::all_scenarios()) {
    spec.scenarios.push_back(exp::ScenarioSpec::of(s, wc));
  }
  for (const workload::Scenario s : {workload::Scenario::kRamp,
                                     workload::Scenario::kBurstDecay,
                                     workload::Scenario::kPoisson}) {
    spec.scenarios.push_back(exp::ScenarioSpec::of(s, wc));
  }
  // NVSim-lite Vdd_LP sweep with HP fixed at 1.2 V, as in design_space.
  const mem::NvsimLite nvsim;
  const std::vector<double> vdds =
      tiny ? std::vector<double>{0.8} : std::vector<double>{1.1, 1.0, 0.9, 0.8, 0.7, 0.6};
  for (const double vdd : vdds) {
    sys::SystemConfig cfg;
    cfg.power = nvsim.make_spec(1.2, vdd);
    spec.variants.push_back({format_double(vdd, 1), cfg});
  }

  Span setup{ctx.tracer, "setup"};
  std::vector<exp::RunSpec> runs;
  {
    Span s{ctx.tracer, "exp.ExperimentSpec::expand"};
    runs = spec.expand();
    L["exp.expand_s"] = s.end();
  }
  std::vector<WarmJob> jobs;
  std::unordered_set<std::uint64_t> seen;
  for (const exp::RunSpec& r : runs) {
    sys::SystemConfig cfg = r.config;
    cfg.lut_cache = &ctx.lut_cache;
    if (seen.insert(sys::processor_reuse_key(cfg, r.model)).second) {
      jobs.push_back({cfg, &r.model});
    }
  }
  warm_luts(ctx, jobs);
  setup.end();
  res.setup_s = since_start_s(Clock::now());

  exp::RunnerOptions ro;
  ro.threads = ctx.opt.threads;
  ro.lut_cache = &ctx.lut_cache;
  exp::ResultSet results;
  {
    Span s{ctx.tracer, "exp.Runner::run_all"};
    results = exp::Runner{ro}.run_all(runs);
    L["exp.run_s"] = s.end();
  }
  results.experiment_name = spec.name;

  DigestBuf buf;
  std::ostream out{&buf};
  {
    Span s{ctx.tracer, "exp.ResultSet::write_json+write_csv"};
    results.write_json(out);
    results.write_csv(out);
    L["serialize.grid_s"] = s.end();
  }
  close_output(ctx, out, buf);

  res.ops = results.size();
  if (res.ops != spec.run_count()) throw std::runtime_error("grid lost runs");
  double savings_sum = 0.0;
  std::size_t cells = 0;
  for (const exp::RunResult& r : results.runs()) {
    res.sim_slices += static_cast<std::uint64_t>(r.slices);
    res.energy_mj += r.total_energy_pj * 1e-9;
    res.tasks += r.tasks;
    res.deadline_misses += r.deadline_violations;
    if (r.arch != sys::ArchConfig::hhpim().name) continue;
    const exp::RunResult& base = results.at(sys::ArchConfig::baseline().name,
                                            r.model, r.scenario, r.variant);
    savings_sum += 100.0 * (1.0 - r.total_energy_pj / base.total_energy_pj);
    ++cells;
  }
  res.savings_pct = cells > 0 ? savings_sum / static_cast<double>(cells) : 0.0;

  if (!ctx.tracer.enabled()) return;
  Span measure{ctx.tracer, "measure (after wall_s)"};
  read_lut_stats(ctx);
  // Probe each model on the first HH-PIM run configuration of the grid (its
  // LUT is already warm).
  std::vector<WarmJob> probes;
  for (const nn::Model& m : spec.models) {
    for (const WarmJob& j : jobs) {
      if (j.config.arch.kind == sys::ArchKind::kHhpim && j.model->name() == m.name()) {
        probes.push_back(j);
        break;
      }
    }
  }
  probe_run_slice(ctx, probes, probe_loads(ctx.opt.seed, tiny));
}

void print_json(const Options& opt, const Result& r, const std::string& error) {
  const auto num = [](double v) {
    if (!std::isfinite(v)) return std::string{"null"};
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string{buf};
  };
  const double run_s = r.wall_s - r.setup_s;
  std::string s = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                  std::to_string(opt.seed) + ",\"threads\":" +
                  std::to_string(opt.threads) + ",\"size\":\"" +
                  (opt.tiny ? "tiny" : "full") + "\",\"ops\":" + std::to_string(r.ops) +
                  ",\"ok\":" + (error.empty() && r.digest_ok ? "true" : "false") +
                  ",\"error\":\"" + error + "\",\"digest\":\"" + hex64(r.digest) +
                  "\",\"output_bytes\":" + std::to_string(r.output_bytes) +
                  ",\"hardware_concurrency\":" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\"compiler\":\"" COLDBENCH_COMPILER "\",\"build_type\":\"" COLDBENCH_BUILD_TYPE
                  "\",\"metrics\":{";
  s += "\"wall_s\":" + num(r.wall_s);
  s += ",\"setup_s\":" + num(r.setup_s);
  s += ",\"sim_slices_per_s\":" +
       num(run_s > 0.0 ? static_cast<double>(r.sim_slices) / run_s : 0.0);
  s += ",\"peak_rss_mb\":" + num(peak_rss_mib());
  s += ",\"sim_mj_per_task\":" +
       num(r.tasks > 0 ? r.energy_mj / static_cast<double>(r.tasks) : 0.0);
  s += ",\"sim_deadline_miss_frac\":" +
       num(r.tasks > 0 ? static_cast<double>(r.deadline_misses) /
                             static_cast<double>(r.tasks)
                       : 0.0);
  s += ",\"sim_savings_vs_baseline_pct\":" + num(r.savings_pct);
  s += "},\"layers\":{";
  bool first = true;
  for (const auto& [name, v] : r.layers.values) {
    s += (first ? "\"" : ",\"") + name + "\":" + num(v);
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli{argc, argv};
  Options opt;
  opt.workload = cli.get("workload", "");
  try {
    opt.seed = std::stoull(cli.get("seed", "1592598565"));  // 0x5eed2025
  } catch (const std::exception&) {
    std::fprintf(stderr, "--seed must be an unsigned integer\n");
    return 2;
  }
  opt.threads = static_cast<unsigned>(cli.get_int("threads", 4));
  opt.tiny = cli.get("size", "full") == "tiny";
  opt.expect = cli.get("expect", "");
  const std::string trace_path = cli.get("trace", "");
  if (opt.threads == 0) opt.threads = 1;

  Tracer tracer{!trace_path.empty(), opt.workload};
  Result res;
  std::string error;
  try {
    Context ctx{opt, tracer, res, {}};
    if (opt.workload == "fleet-steady") {
      run_fleet(ctx, fleet_steady_spec(opt.seed, opt.tiny), 0, 256);
    } else if (opt.workload == "fleet-week") {
      run_fleet(ctx, fleet_week_spec(opt.seed, opt.tiny), opt.tiny ? 4 : 96, 64);
    } else if (opt.workload == "grid-dse") {
      run_grid(ctx);
    } else {
      std::fprintf(stderr, "unknown --workload '%s' (fleet-steady, fleet-week, grid-dse)\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    error = e.what();
    for (char& c : error) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = ' ';
    }
  }
  if (res.wall_s == 0.0) res.wall_s = since_start_s(Clock::now());
  print_json(opt, res, error);

  if (tracer.enabled()) {
    std::ofstream out(trace_path);
    tracer.write_chrome_json(out);
    if (!out) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
  }
  return error.empty() ? 0 : 1;
}
