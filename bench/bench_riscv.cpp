// RISC-V host engine perf baseline — produces BENCH_riscv.json.
//
// Self-contained (no google-benchmark), same harness idiom as
// bench_fleet.cpp. Regenerate with:
//
//   ./build/bench/bench_riscv --out=BENCH_riscv.json
//
// (CI runs the same with --iters=400000 --reps=2 --devices=128 and gates
// the fresh JSON with tools/bench_diff.py --require decode_cache_speedup:3.0.)
//
// What it pins down:
//   * interp/<kernel> vs engine/<kernel> — the one-instruction-at-a-time
//     riscv::Cpu against the decoded-block riscv::BlockEngine on three
//     Dhrystone-flavored kernels (ALU/branch mix, load/store copy loop,
//     multiplier-heavy hash). `mips` is retired instructions per wall
//     microsecond, best of --reps.
//   * decode_cache_speedup (top level) — geomean of the per-kernel
//     engine/interp MIPS ratios; the CI floor (>= 3) is the tentpole claim
//     of docs/RISCV.md.
//   * fleet/host-off vs fleet/host-on — the same single-thread fleet with
//     and without SystemConfig::host, measuring what per-slice host
//     co-simulation costs end to end (`host_overhead_t1`, expected close
//     to 1: the default scheduler retires a few hundred cycles per slice).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "fleet/simulator.hpp"
#include "hhpim/processor.hpp"
#include "riscv/bus.hpp"
#include "riscv/cpu.hpp"
#include "riscv/engine.hpp"
#include "riscv/rv_asm.hpp"

using namespace hhpim;

namespace {

// 64 KiB RAM at 0: code assembles at 0, data lives at 0x8000 so the copy
// kernel's stores never land inside a compiled block.
constexpr std::size_t kRamBytes = 64 * 1024;

struct Kernel {
  const char* name;
  const char* source;  ///< a0 = iteration count, halts with ecall
};

// Dhrystone-flavored mixes (loop control + the class under test), not the
// real Dhrystone: the assembler has no C runtime. Instruction-class ratios
// are what matters for exercising the dispatch paths.
constexpr Kernel kKernels[] = {
    {"dhry_alu", R"(
        li   t0, 0
        li   t1, 0x12345
    loop:
        slli t2, t1, 5
        srli t3, t1, 7
        xor  t1, t2, t3
        add  t1, t1, t0
        andi t4, t0, 15
        sub  t1, t1, t4
        or   t1, t1, t4
        addi t0, t0, 1
        bne  t0, a0, loop
        mv   a1, t1
        ecall
    )"},
    {"dhry_mem", R"(
        li   s0, 0x8000
        li   s1, 0x9000
        li   t0, 0
    loop:
        andi t1, t0, 255
        slli t1, t1, 2
        add  t2, s0, t1
        lw   t3, 0(t2)
        addi t3, t3, 1
        add  t4, s1, t1
        sw   t3, 0(t4)
        sh   t3, 0(t2)
        addi t0, t0, 1
        bne  t0, a0, loop
        ecall
    )"},
    {"dhry_mul", R"(
        li   t0, 0
        li   t1, 0x7e3779b9
    loop:
        mul   t2, t0, t1
        mulhu t3, t2, t1
        xor   t1, t2, t3
        add   t1, t1, t0
        addi  t0, t0, 1
        bne   t0, a0, loop
        mv    a1, t1
        ecall
    )"},
};

struct MipsRow {
  std::string name;
  double mips = 0.0;            ///< retired instructions / wall us (best rep)
  std::uint64_t retired = 0;    ///< instructions per rep
  std::uint64_t final_a1 = 0;   ///< kernel checksum (engine must match interp)
};

std::vector<std::uint32_t> assemble_or_die(const Kernel& k) {
  const riscv::RvAsmResult r = riscv::assemble_rv32(k.source, 0);
  if (const auto* err = std::get_if<riscv::RvAsmError>(&r)) {
    std::fprintf(stderr, "%s: line %zu: %s\n", k.name, err->line,
                 err->message.c_str());
    std::exit(1);
  }
  return std::get<std::vector<std::uint32_t>>(r);
}

void load_program(riscv::Ram& ram, const std::vector<std::uint32_t>& words) {
  std::vector<std::uint8_t> image(words.size() * 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t w = words[i];
    image[i * 4 + 0] = static_cast<std::uint8_t>(w);
    image[i * 4 + 1] = static_cast<std::uint8_t>(w >> 8);
    image[i * 4 + 2] = static_cast<std::uint8_t>(w >> 16);
    image[i * 4 + 3] = static_cast<std::uint8_t>(w >> 24);
  }
  ram.load_image(0, image.data(), image.size());
}

/// One timed pass of `core` over the loaded program: resume at 0, set
/// a0 = iters, run to ECALL. Returns instructions retired this pass.
template <typename Core>
std::uint64_t run_pass(Core& core, std::uint64_t iters, double& wall_ms) {
  core.resume(0);
  core.set_reg(10, static_cast<std::uint32_t>(iters));  // a0
  const std::uint64_t before = core.retired();
  const auto t0 = std::chrono::steady_clock::now();
  (void)core.run(~std::uint64_t{0});
  wall_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
  if (core.halt_reason() != riscv::HaltReason::kEcall) {
    std::fprintf(stderr, "kernel halted with %s at pc=0x%x\n",
                 riscv::to_string(core.halt_reason()), core.pc());
    std::exit(1);
  }
  return core.retired() - before;
}

template <typename Core>
MipsRow bench_core(const char* prefix, const Kernel& k, Core& core,
                   std::uint64_t iters, int reps) {
  MipsRow row;
  row.name = std::string(prefix) + "/" + k.name;
  for (int rep = 0; rep < reps; ++rep) {
    double wall_ms = 0.0;
    row.retired = run_pass(core, iters, wall_ms);
    const double mips = wall_ms > 0.0
                            ? static_cast<double>(row.retired) / (wall_ms * 1e3)
                            : 0.0;
    if (mips > row.mips) row.mips = mips;
  }
  row.final_a1 = core.reg(11);
  return row;
}

double run_fleet_ms(const fleet::FleetSpec& spec, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    fleet::FleetOptions opts;
    opts.threads = 1;
    opts.keep_results = false;
    const fleet::FleetSimulator sim{opts};
    const auto t0 = std::chrono::steady_clock::now();
    (void)sim.run(spec);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli{argc, argv};
  const std::uint64_t iters =
      static_cast<std::uint64_t>(cli.get_int("iters", 2'000'000));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int devices = static_cast<int>(cli.get_int("devices", 256));
  const int slices = static_cast<int>(cli.get_int("slices", 8));
  const std::string out_path = cli.get("out", "BENCH_riscv.json");

  std::printf("bench_riscv: %llu iterations/kernel (best of %d)\n",
              static_cast<unsigned long long>(iters), reps);

  std::vector<MipsRow> rows;
  double speedup_product = 1.0;
  int speedup_count = 0;
  for (const Kernel& k : kKernels) {
    const std::vector<std::uint32_t> words = assemble_or_die(k);

    riscv::Ram interp_ram{kRamBytes};
    riscv::Bus interp_bus;
    interp_bus.map(0, kRamBytes, &interp_ram);
    load_program(interp_ram, words);
    riscv::Cpu cpu{&interp_bus, 0};
    const MipsRow interp = bench_core("interp", k, cpu, iters, reps);

    riscv::Ram engine_ram{kRamBytes};
    riscv::Bus engine_bus;
    engine_bus.map(0, kRamBytes, &engine_ram);
    load_program(engine_ram, words);
    riscv::BlockEngine engine{&engine_bus, 0};
    const MipsRow fast = bench_core("engine", k, engine, iters, reps);

    if (interp.retired != fast.retired || interp.final_a1 != fast.final_a1) {
      std::fprintf(stderr,
                   "%s: engine diverged from interpreter "
                   "(retired %llu vs %llu, a1 %llu vs %llu)\n",
                   k.name, static_cast<unsigned long long>(fast.retired),
                   static_cast<unsigned long long>(interp.retired),
                   static_cast<unsigned long long>(fast.final_a1),
                   static_cast<unsigned long long>(interp.final_a1));
      return 1;
    }

    const double speedup = interp.mips > 0.0 ? fast.mips / interp.mips : 0.0;
    std::printf("  %-10s: interp %7.1f MIPS, engine %7.1f MIPS (%.2fx)\n",
                k.name, interp.mips, fast.mips, speedup);
    if (speedup > 0.0) {
      speedup_product *= speedup;
      ++speedup_count;
    }
    rows.push_back(interp);
    rows.push_back(fast);
  }
  const double decode_cache_speedup =
      speedup_count > 0
          ? std::pow(speedup_product, 1.0 / static_cast<double>(speedup_count))
          : 0.0;
  std::printf("  decode_cache_speedup (geomean): %.2fx\n", decode_cache_speedup);

  // Fleet legs: identical fleets, host scheduler co-simulation off vs on.
  fleet::FleetSpec base;
  base.name = "bench-riscv";
  base.devices = devices;
  base.slices = slices;
  base.battery.capacity = Energy::mj(2500.0);  // no device exhausts
  fleet::FleetSpec hosted = base;
  hosted.config.host.enabled = true;

  const double off_ms = run_fleet_ms(base, reps);
  std::printf("  fleet/host-off: %8.1f ms  (%.0f devices/s)\n", off_ms,
              devices / (off_ms * 1e-3));
  const double on_ms = run_fleet_ms(hosted, reps);
  std::printf("  fleet/host-on : %8.1f ms  (%.2fx vs host-off)\n", on_ms,
              off_ms > 0.0 ? on_ms / off_ms : 0.0);

  const unsigned hw = std::thread::hardware_concurrency();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::string json;
  JsonWriter w{json};
  w.begin_object();
  w.field("bench", "riscv");
  w.key("host");
  w.begin_object();
  w.field("hardware_threads", static_cast<std::uint64_t>(hw == 0 ? 1 : hw));
  w.end_object();
  w.key("config");
  w.begin_object();
  w.field("iters", static_cast<std::uint64_t>(iters));
  w.field("reps", reps);
  w.field("devices", devices);
  w.field("slices", slices);
  w.end_object();
  w.key("results");
  w.begin_array();
  for (const MipsRow& row : rows) {
    w.begin_object();
    w.field("name", row.name.c_str());
    w.field("mips", row.mips);
    w.field("retired", row.retired);
    w.end_object();
  }
  const auto fleet_row = [&w, devices](const char* name, double ms) {
    w.begin_object();
    w.field("name", name);
    w.field("devices", devices);
    w.field("wall_ms", ms);
    w.field("devices_per_s",
            ms > 0.0 ? static_cast<double>(devices) / (ms * 1e-3) : 0.0);
    w.end_object();
  };
  fleet_row("fleet/host-off", off_ms);
  fleet_row("fleet/host-on", on_ms);
  w.end_array();
  w.field("decode_cache_speedup", decode_cache_speedup);
  w.field("host_overhead_t1", off_ms > 0.0 ? on_ms / off_ms : 0.0);
  w.end_object();
  out << json << '\n';
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
