// Host-core demo: assembles a small RISC-V program that writes to the
// memory-mapped console and runs a checksum loop, runs it on the
// decoded-block engine (riscv::BlockEngine — the same core the
// host-in-the-loop fleet path uses), and reports what the core did.
//
//   --engine=interp   run on the one-instruction-at-a-time riscv::Cpu instead
//   --iters=N         checksum-loop iterations (default 200000)
//   --stats           print block-cache counters and MIPS
//
// Both engines print the same "console:" line for the same --iters. The
// exit status is 0 only when the program halts at its final ecall.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "riscv/bus.hpp"
#include "riscv/cpu.hpp"
#include "riscv/engine.hpp"
#include "riscv/rv_asm.hpp"

using namespace hhpim;

int main(int argc, char** argv) {
  const Cli cli{argc, argv};
  long iters = 0;
  try {  // an unknown flag or a malformed or negative --iters: exit 1
    cli.reject_unknown_flags({"engine", "iters", "stats"});
    iters = static_cast<long>(cli.get_count("iters", 200'000));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const bool use_interp = cli.get("engine", "blocks") == "interp";
  const bool want_stats = cli.has("stats");

  riscv::Ram ram{64 * 1024};
  riscv::Console console;
  riscv::Bus bus;
  bus.map(0x0000'0000, 64 * 1024, &ram);
  bus.map(0x1000'0000, 0x100, &console);

  // The program: announce itself on the console, then hash a checksum (the
  // busy loop that makes --stats interesting) and return it in a0.
  const std::string source = R"(
      li s0, 0x10000000   # console
      li t0, 82           # 'R'
      sb t0, 0(s0)
      li t0, 86           # 'V'
      sb t0, 0(s0)
      # checksum loop: a1 = iteration count
      li t0, 0
      li t1, 0x12345
    hash:
      slli t2, t1, 5
      srli t3, t1, 7
      xor  t1, t2, t3
      add  t1, t1, t0
      addi t0, t0, 1
      blt  t0, a1, hash
      mv a0, t1
      ecall
  )";

  const auto assembled = riscv::assemble_rv32(source);
  if (std::holds_alternative<riscv::RvAsmError>(assembled)) {
    const auto& e = std::get<riscv::RvAsmError>(assembled);
    std::fprintf(stderr, "asm error at line %zu: %s\n", e.line, e.message.c_str());
    return 1;
  }
  const auto& words = std::get<std::vector<std::uint32_t>>(assembled);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
  }

  riscv::Cpu cpu{&bus};
  riscv::BlockEngine engine{&bus};
  if (use_interp) {
    cpu.set_reg(11, static_cast<std::uint32_t>(iters));  // a1
  } else {
    engine.set_reg(11, static_cast<std::uint32_t>(iters));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t retired =
      use_interp ? cpu.run(~std::uint64_t{0}) : engine.run(~std::uint64_t{0});
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const std::uint32_t checksum = use_interp ? cpu.reg(10) : engine.reg(10);
  const riscv::HaltReason halt = use_interp ? cpu.halt_reason() : engine.halt_reason();

  std::printf("core (%s): %llu instructions retired\n",
              use_interp ? "interp" : "block engine",
              static_cast<unsigned long long>(retired));
  std::printf("console: \"%s\", checksum=0x%x, halt=%s\n", console.output().c_str(),
              checksum, riscv::to_string(halt));
  if (want_stats) {
    const double mips = wall_ms > 0.0
                            ? static_cast<double>(retired) / (wall_ms * 1e3)
                            : 0.0;
    std::printf("stats: %.2f ms, %.1f MIPS\n", wall_ms, mips);
    if (!use_interp) {
      const riscv::EngineStats& s = engine.stats();
      std::printf(
          "stats: %llu blocks compiled, %llu block hits, %llu invalidations, "
          "%llu cycles (CycleModel)\n",
          static_cast<unsigned long long>(s.blocks_compiled),
          static_cast<unsigned long long>(s.block_hits),
          static_cast<unsigned long long>(s.invalidations),
          static_cast<unsigned long long>(engine.cycles()));
    }
  }
  return halt == riscv::HaltReason::kEcall ? 0 : 1;
}
