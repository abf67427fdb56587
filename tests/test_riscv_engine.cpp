// BlockEngine correctness: bit-exact equivalence with the one-instruction
// interpreter (riscv::Cpu) on the same programs, plus the engine-only
// surfaces — block-cache stats, self-modifying-code invalidation, and the
// CycleModel counter. The equivalence contract (same registers, pc, halt
// reason, retired count, and RAM bytes after any run) is what lets the
// host-in-the-loop path trust the fast engine (docs/RISCV.md).
#include "riscv/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "riscv/bus.hpp"
#include "riscv/cpu.hpp"
#include "riscv/rv_asm.hpp"

namespace hhpim::riscv {
namespace {

constexpr std::size_t kRamBytes = 64 * 1024;

std::vector<std::uint32_t> assemble(const std::string& source) {
  const RvAsmResult r = assemble_rv32(source);
  if (const auto* e = std::get_if<RvAsmError>(&r)) {
    throw std::runtime_error("asm error line " + std::to_string(e->line) +
                             ": " + e->message);
  }
  return std::get<std::vector<std::uint32_t>>(r);
}

/// One program loaded into two identical machines: the interpreter and the
/// block engine. expect_equivalent() is the whole contract.
class DualMachine {
 public:
  explicit DualMachine(const std::string& source)
      : cpu_ram(kRamBytes), eng_ram(kRamBytes), cpu(&cpu_bus), engine(&eng_bus) {
    cpu_bus.map(0, kRamBytes, &cpu_ram);
    eng_bus.map(0, kRamBytes, &eng_ram);
    const std::vector<std::uint32_t> words = assemble(source);
    for (std::size_t i = 0; i < words.size(); ++i) {
      cpu_ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
      eng_ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
    }
  }

  /// Runs both cores with the same budget and returns the interpreter's
  /// step count (asserting the engine returned the same).
  std::uint64_t run(std::uint64_t max_steps = 1'000'000) {
    const std::uint64_t a = cpu.run(max_steps);
    const std::uint64_t b = engine.run(max_steps);
    EXPECT_EQ(a, b) << "run() return values diverged";
    return a;
  }

  void expect_equivalent() const {
    EXPECT_EQ(cpu.halt_reason(), engine.halt_reason());
    EXPECT_EQ(cpu.pc(), engine.pc());
    EXPECT_EQ(cpu.retired(), engine.retired());
    for (unsigned i = 0; i < 32; ++i) {
      EXPECT_EQ(cpu.reg(i), engine.reg(i)) << "x" << i;
    }
    ASSERT_EQ(std::memcmp(cpu_ram.data(), eng_ram.data(), kRamBytes), 0)
        << "RAM contents diverged";
  }

  Ram cpu_ram, eng_ram;
  Bus cpu_bus, eng_bus;
  Cpu cpu;
  BlockEngine engine;
};

TEST(BlockEngine, EquivalentOnLoopKernel) {
  DualMachine m(R"(
      li t0, 0      # sum
      li t1, 1      # i
      li t2, 101
    loop:
      add t0, t0, t1
      addi t1, t1, 1
      blt t1, t2, loop
      ecall
  )");
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.reg(5), 5050u);
  EXPECT_EQ(m.engine.halt_reason(), HaltReason::kEcall);
}

TEST(BlockEngine, EquivalentOnMemoryAndMExtension) {
  DualMachine m(R"(
      li s0, 0x1000
      li t0, 0          # i
      li t1, 0x12345
    loop:
      slli t2, t0, 2
      add  t2, t2, s0
      mul  t3, t0, t1
      mulh t4, t0, t1
      xor  t3, t3, t4
      sw   t3, 0(t2)
      lw   t5, 0(t2)
      sh   t5, 0x400(t2)
      lbu  t6, 0x400(t2)
      div  t4, t3, t0   # i == 0 first pass: div by zero path
      rem  t4, t4, t1
      addi t0, t0, 1
      li   t2, 64
      blt  t0, t2, loop
      ecall
  )");
  m.run();
  m.expect_equivalent();
}

TEST(BlockEngine, EquivalentOnFaults) {
  const char* programs[] = {
      // misaligned load
      "li t0, 0x102\n lw a0, 0(t0)\n ecall",
      // misaligned store
      "li t0, 0x101\n sh t0, 0(t0)\n ecall",
      // unmapped load
      "li t0, 0x00200000\n lw a0, 0(t0)\n ecall",
      // unmapped store
      "li t0, 0x00200000\n sw t0, 0(t0)\n ecall",
      // misaligned fetch
      "li t0, 2\n jr t0",
      // unmapped fetch
      "li t0, 0x00200000\n jr t0",
      // ebreak
      "li a0, 7\n ebreak",
  };
  for (const char* src : programs) {
    DualMachine m(src);
    m.run();
    m.expect_equivalent();
    EXPECT_TRUE(m.engine.halted()) << src;
  }
}

TEST(BlockEngine, WrappingAccessHalts) {
  // The end address of each access wraps past 0xffffffff to 0.
  for (const char* access : {"sb t0, -1(zero)", "sh t0, -2(zero)", "lw a0, -4(zero)"}) {
    DualMachine m(std::string("li t0, 0x55\n") + access + "\necall");
    m.run();
    m.expect_equivalent();
    EXPECT_EQ(m.engine.halt_reason(), HaltReason::kUnmappedAccess) << access;
  }
}

TEST(BlockEngine, EquivalentOnBadInstruction) {
  DualMachine m("nop\n ecall");
  m.cpu_ram.store(4, 4, 0xffffffffu);
  m.eng_ram.store(4, 4, 0xffffffffu);
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.halt_reason(), HaltReason::kBadInstruction);
}

TEST(BlockEngine, EquivalentAtEveryStepBudget) {
  // Stopping mid-block must leave exactly the interpreter's state: same pc
  // (first unexecuted op), same retired count, same registers. Sweep every
  // budget through a loop that crosses block boundaries.
  const std::string src = R"(
      li t0, 0
      li t1, 0
    loop:
      addi t0, t0, 3
      andi t2, t0, 7
      bnez t2, skip
      addi t1, t1, 1
    skip:
      li t3, 60
      blt t0, t3, loop
      ecall
  )";
  for (std::uint64_t budget = 0; budget <= 130; ++budget) {
    DualMachine m(src);
    m.run(budget);
    m.expect_equivalent();
  }
}

TEST(BlockEngine, X0StaysZero) {
  DualMachine m(R"(
      addi zero, zero, 42
      li t0, 9
      add zero, t0, t0
      mv a0, zero
      ecall
  )");
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.reg(0), 0u);
  EXPECT_EQ(m.engine.reg(10), 0u);
}

TEST(BlockEngine, SelfModifyingCodeSameBlock) {
  // The store patches an instruction *later in the same basic block* — the
  // engine must abandon the block mid-flight and recompile, executing the
  // patched word exactly like the interpreter does.
  DualMachine m(R"(
      auipc t2, 0           # t2 = 0
      addi  t2, t2, 28      # patch site (7 words in)
      li    t1, 0x00200513  # encodes: addi a0, zero, 2
      sw    t1, 0(t2)
      nop
      nop
      addi  a0, zero, 1     # the word the sw overwrites
      ecall
  )");
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.reg(10), 2u);
  EXPECT_GE(m.engine.stats().invalidations, 1u);
}

TEST(BlockEngine, SelfModifyingCodeAcrossBlocks) {
  // A loop that rewrites an instruction of a block it *executed on the
  // previous iteration* — the store hits compiled code and the engine must
  // invalidate and recompile, iteration after iteration.
  DualMachine m(R"(
      li   s0, 0            # loop counter
      li   s1, 0x00200513   # encodes: addi a0, zero, 2
      li   s2, 64           # patch site: the addi in `patched`
      li   s3, 0            # sum of the patched addi's results
    loop:
      sw   s1, 0(s2)
      call patched
      add  s3, s3, a0
      li   t0, 0x00100000   # +1 to the I-immediate field
      add  s1, s1, t0
      addi s0, s0, 1
      li   t0, 3
      blt  s0, t0, loop
      mv   a0, s3
      ecall
    patched:
      addi a0, zero, 1      # rewritten before every call
      ret
  )");
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.reg(10), 9u);  // 2 + 3 + 4
  EXPECT_GE(m.engine.stats().invalidations, 2u);
}

TEST(BlockEngine, StatsCountCompilesAndHits) {
  DualMachine m(R"(
      li t0, 0
      li t1, 2000
    loop:
      addi t0, t0, 1
      blt t0, t1, loop
      ecall
  )");
  m.run();
  m.expect_equivalent();
  const EngineStats& s = m.engine.stats();
  EXPECT_GT(s.blocks_compiled, 0u);
  EXPECT_GT(s.block_hits, s.blocks_compiled * 100)
      << "a 2000-iteration loop must be served from the cache";
  EXPECT_EQ(s.invalidations, 0u);
}

TEST(BlockEngine, ResumeKeepsCacheClearCacheDrops) {
  DualMachine m(R"(
      li t0, 0
      li t1, 100
    loop:
      addi t0, t0, 1
      blt t0, t1, loop
      ecall
  )");
  m.run();
  const std::uint64_t compiled_once = m.engine.stats().blocks_compiled;
  EXPECT_GT(compiled_once, 0u);

  // Re-running the same program reuses every block.
  m.cpu.resume(0);
  m.engine.resume(0);
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.stats().blocks_compiled, compiled_once);

  // After RAM is rewritten behind the Bus, clear_cache() + resume must see
  // the new code (the riscv_host_demo / Processor::load_state protocol).
  const std::vector<std::uint32_t> next = assemble("li a0, 77\n ecall");
  for (std::size_t i = 0; i < next.size(); ++i) {
    m.cpu_ram.store(static_cast<std::uint32_t>(i * 4), 4, next[i]);
    m.eng_ram.store(static_cast<std::uint32_t>(i * 4), 4, next[i]);
  }
  m.engine.clear_cache();
  m.cpu.resume(0);
  m.engine.resume(0);
  m.run();
  m.expect_equivalent();
  EXPECT_EQ(m.engine.reg(10), 77u);
  EXPECT_GT(m.engine.stats().blocks_compiled, compiled_once);
}

TEST(BlockEngine, CycleModelCountsPerClass) {
  Ram ram{kRamBytes};
  Bus bus;
  bus.map(0, kRamBytes, &ram);
  const std::vector<std::uint32_t> words = assemble(R"(
      add  t0, t1, t2
      mul  t0, t1, t2
      div  t0, t1, t2
      lw   t0, 0x100(zero)
      sw   t0, 0x100(zero)
      jal  t3, next
    next:
      ecall
  )");
  for (std::size_t i = 0; i < words.size(); ++i) {
    ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
  }
  CycleModel cm;  // defaults: alu 1, mul 3, div 34, load 2, store 2, jump 2,
                  // system 1
  BlockEngine e{&bus, 0, cm};
  e.run();
  EXPECT_EQ(e.halt_reason(), HaltReason::kEcall);
  EXPECT_EQ(e.cycles(), 1u + 3u + 34u + 2u + 2u + 2u + 1u);

  // Same program, doubled ALU cost: exactly one more cycle.
  CycleModel expensive = cm;
  expensive.alu = 2;
  BlockEngine e2{&bus, 0, expensive};
  e2.run();
  EXPECT_EQ(e2.cycles(), e.cycles() + 1);
}

TEST(BlockEngine, CyclesDeterministicAcrossRuns) {
  const std::string src = R"(
      li t0, 0
      li t1, 500
    loop:
      mul t2, t0, t1
      addi t0, t0, 1
      blt t0, t1, loop
      ecall
  )";
  DualMachine a(src);
  DualMachine b(src);
  a.run();
  b.run();
  EXPECT_EQ(a.engine.cycles(), b.engine.cycles());
  EXPECT_GT(a.engine.cycles(), a.engine.retired())
      << "mul-heavy code must cost more cycles than instructions";
}

}  // namespace
}  // namespace hhpim::riscv
