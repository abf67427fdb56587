#include "riscv/cpu.hpp"

#include <gtest/gtest.h>

#include "riscv/bus.hpp"
#include "riscv/rv_asm.hpp"

namespace hhpim::riscv {
namespace {

/// Assembles, loads at 0, runs until halt, returns the CPU for inspection.
class Machine {
 public:
  explicit Machine(const std::string& source, std::size_t ram_bytes = 64 * 1024)
      : ram(ram_bytes), cpu(&bus) {
    bus.map(0x0000'0000, static_cast<std::uint32_t>(ram_bytes), &ram);
    bus.map(0x1000'0000, 0x100, &console);
    const auto r = assemble_rv32(source);
    if (std::holds_alternative<RvAsmError>(r)) {
      const auto& e = std::get<RvAsmError>(r);
      throw std::runtime_error("asm error line " + std::to_string(e.line) + ": " +
                               e.message);
    }
    const auto& words = std::get<std::vector<std::uint32_t>>(r);
    for (std::size_t i = 0; i < words.size(); ++i) {
      ram.store(static_cast<std::uint32_t>(i * 4), 4, words[i]);
    }
  }

  Ram ram;
  Console console;
  Bus bus;
  Cpu cpu;
};

TEST(RvAsm, RegisterNames) {
  EXPECT_EQ(parse_register("x0"), 0);
  EXPECT_EQ(parse_register("zero"), 0);
  EXPECT_EQ(parse_register("sp"), 2);
  EXPECT_EQ(parse_register("a0"), 10);
  EXPECT_EQ(parse_register("t6"), 31);
  EXPECT_EQ(parse_register("x31"), 31);
  EXPECT_EQ(parse_register("x32"), -1);
  EXPECT_EQ(parse_register("bogus"), -1);
}

TEST(Cpu, ArithmeticImmediates) {
  Machine m(R"(
      addi a0, zero, 100
      addi a0, a0, -30
      slti a1, a0, 71
      xori a2, a0, 0xff
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kEcall);
  EXPECT_EQ(m.cpu.reg(10), 70u);
  EXPECT_EQ(m.cpu.reg(11), 1u);
  EXPECT_EQ(m.cpu.reg(12), 70u ^ 0xffu);
}

TEST(Cpu, LuiAuipcAndLi) {
  Machine m(R"(
      lui a0, 0x12345
      li a1, 0x12345678
      li a2, -5
      auipc a3, 0
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 0x12345000u);
  EXPECT_EQ(m.cpu.reg(11), 0x12345678u);
  EXPECT_EQ(m.cpu.reg(12), 0xfffffffbu);
  // pc of the auipc: lui (1 word) + large li (2 words) + small li (1 word).
  EXPECT_EQ(m.cpu.reg(13), 16u);
}

TEST(Cpu, BranchesAndLoop) {
  // Sum 1..10 with a loop.
  Machine m(R"(
      li t0, 0      # sum
      li t1, 1      # i
      li t2, 11
    loop:
      add t0, t0, t1
      addi t1, t1, 1
      blt t1, t2, loop
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(5), 55u);
}

TEST(Cpu, MemoryLoadsAndStores) {
  Machine m(R"(
      li t0, 0x1000
      li t1, -2
      sw t1, 0(t0)
      lw a0, 0(t0)
      lh a1, 0(t0)
      lhu a2, 0(t0)
      lb a3, 0(t0)
      lbu a4, 0(t0)
      sb t1, 8(t0)
      lbu a5, 8(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 0xfffffffeu);
  EXPECT_EQ(m.cpu.reg(11), 0xfffffffeu);  // lh sign-extends
  EXPECT_EQ(m.cpu.reg(12), 0x0000fffeu);  // lhu zero-extends
  EXPECT_EQ(m.cpu.reg(13), 0xfffffffeu);
  EXPECT_EQ(m.cpu.reg(14), 0x000000feu);
  EXPECT_EQ(m.cpu.reg(15), 0x000000feu);
}

TEST(Cpu, ShiftsAndCompares) {
  Machine m(R"(
      li t0, -16
      srai a0, t0, 2
      srli a1, t0, 28
      slli a2, t0, 1
      li t1, 5
      sltu a3, t1, t0    # unsigned: 5 < 0xfff0 -> 1
      slt a4, t0, t1     # signed: -16 < 5 -> 1
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 0xfffffffcu);
  EXPECT_EQ(m.cpu.reg(11), 0xfu);
  EXPECT_EQ(m.cpu.reg(12), 0xffffffe0u);
  EXPECT_EQ(m.cpu.reg(13), 1u);
  EXPECT_EQ(m.cpu.reg(14), 1u);
}

TEST(Cpu, MExtension) {
  Machine m(R"(
      li t0, 7
      li t1, -3
      mul a0, t0, t1
      mulh a1, t0, t1
      div a2, t1, t0
      rem a3, t1, t0
      divu a4, t1, t0
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), static_cast<std::uint32_t>(-21));
  EXPECT_EQ(m.cpu.reg(11), 0xffffffffu);  // high bits of negative product
  EXPECT_EQ(m.cpu.reg(12), 0u);           // -3 / 7 truncates toward zero
  EXPECT_EQ(m.cpu.reg(13), static_cast<std::uint32_t>(-3));
  EXPECT_EQ(m.cpu.reg(14), 0xfffffffdu / 7u);
}

TEST(Cpu, DivisionEdgeCases) {
  Machine m(R"(
      li t0, 5
      li t1, 0
      div a0, t0, t1     # div by zero -> -1
      rem a1, t0, t1     # rem by zero -> dividend
      li t2, 0x80000000
      li t3, -1
      div a2, t2, t3     # overflow -> INT_MIN
      rem a3, t2, t3     # overflow -> 0
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 0xffffffffu);
  EXPECT_EQ(m.cpu.reg(11), 5u);
  EXPECT_EQ(m.cpu.reg(12), 0x80000000u);
  EXPECT_EQ(m.cpu.reg(13), 0u);
}

// All eight M-extension ops over one operand pair (a0, a1), results in
// t0..t6 + s0. Reused across operand sets by resume(0) + set_reg.
constexpr const char* kMExtProgram = R"(
    mul    t0, a0, a1
    mulh   t1, a0, a1
    mulhsu t2, a0, a1
    mulhu  t3, a0, a1
    div    t4, a0, a1
    divu   t5, a0, a1
    rem    t6, a0, a1
    remu   s0, a0, a1
    ecall
)";

/// The RV32M result for (a, b) computed with 64-bit reference math.
struct MRef {
  std::uint32_t mul, mulh, mulhsu, mulhu, div, divu, rem, remu;
};

MRef m_reference(std::uint32_t a, std::uint32_t b) {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  const auto wa = static_cast<std::int64_t>(sa);
  const auto wb = static_cast<std::int64_t>(sb);
  MRef r{};
  r.mul = static_cast<std::uint32_t>(wa * wb);
  r.mulh = static_cast<std::uint32_t>(static_cast<std::uint64_t>(wa * wb) >> 32);
  r.mulhsu = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(wa * static_cast<std::int64_t>(b)) >> 32);
  r.mulhu = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b)) >> 32);
  if (b == 0) {
    r.div = 0xffffffffu;  // spec: quotient all ones
    r.rem = a;            // spec: remainder = dividend
    r.divu = 0xffffffffu;
    r.remu = a;
  } else {
    if (a == 0x80000000u && b == 0xffffffffu) {
      r.div = 0x80000000u;  // signed overflow: INT_MIN / -1
      r.rem = 0;
    } else {
      r.div = static_cast<std::uint32_t>(sa / sb);
      r.rem = static_cast<std::uint32_t>(sa % sb);
    }
    r.divu = a / b;
    r.remu = a % b;
  }
  return r;
}

TEST(Cpu, MExtensionMatchesWideReference) {
  // Satellite: DIV/REM by zero, INT_MIN/-1 overflow, and MULH/MULHSU/MULHU
  // sign behavior, every result cross-checked against 64-bit math.
  constexpr std::pair<std::uint32_t, std::uint32_t> kOperands[] = {
      {0, 0},
      {5, 0},                      // division by zero
      {0x80000000u, 0xffffffffu},  // INT_MIN / -1 signed overflow
      {0x80000000u, 1},
      {0x7fffffffu, 0x7fffffffu},
      {0xffffffffu, 0xffffffffu},  // -1 * -1 vs UINT_MAX * UINT_MAX
      {0xdeadbeefu, 0x12345678u},
      {7, 0xfffffffdu},            // 7, -3
      {0xfffffffdu, 7},
      {1u << 31, 1u << 31},
  };
  Machine m(kMExtProgram);
  for (const auto& [a, b] : kOperands) {
    m.cpu.resume(0);
    m.cpu.set_reg(10, a);
    m.cpu.set_reg(11, b);
    m.cpu.run();
    ASSERT_EQ(m.cpu.halt_reason(), HaltReason::kEcall);
    const MRef ref = m_reference(a, b);
    EXPECT_EQ(m.cpu.reg(5), ref.mul) << a << " mul " << b;
    EXPECT_EQ(m.cpu.reg(6), ref.mulh) << a << " mulh " << b;
    EXPECT_EQ(m.cpu.reg(7), ref.mulhsu) << a << " mulhsu " << b;
    EXPECT_EQ(m.cpu.reg(28), ref.mulhu) << a << " mulhu " << b;
    EXPECT_EQ(m.cpu.reg(29), ref.div) << a << " div " << b;
    EXPECT_EQ(m.cpu.reg(30), ref.divu) << a << " divu " << b;
    EXPECT_EQ(m.cpu.reg(31), ref.rem) << a << " rem " << b;
    EXPECT_EQ(m.cpu.reg(8), ref.remu) << a << " remu " << b;
  }
}

TEST(Cpu, MisalignedLoadHalts) {
  Machine m(R"(
      li t0, 0x1002
      lw a0, 0(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kMisalignedAccess);
}

TEST(Cpu, MisalignedStoreHalts) {
  Machine m(R"(
      li t0, 0x1001
      sh t1, 0(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kMisalignedAccess);
}

TEST(Cpu, MisalignedFetchHalts) {
  Machine m(R"(
      li t0, 2
      jr t0
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kMisalignedAccess);
  EXPECT_EQ(m.cpu.pc(), 2u);  // the bad pc is left for diagnostics
}

TEST(Cpu, UnmappedLoadHalts) {
  Machine m(R"(
      li t0, 0x00200000
      lw a0, 0(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kUnmappedAccess);
}

TEST(Cpu, UnmappedStoreHalts) {
  Machine m(R"(
      li t0, 0x00200000
      sw t0, 0(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kUnmappedAccess);
}

TEST(Cpu, UnmappedFetchHalts) {
  Machine m(R"(
      li t0, 0x00200000
      jr t0
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kUnmappedAccess);
  EXPECT_EQ(m.cpu.pc(), 0x00200000u);
}

TEST(Cpu, WrappingAccessHalts) {
  // An access whose end address wraps past 0xffffffff is outside every
  // mapped region: it halts instead of wrapping into the RAM at address 0.
  for (const char* access : {"sb t0, -1(zero)", "sh t0, -2(zero)", "lw a0, -4(zero)"}) {
    Machine m(std::string("li t0, 0x55\n") + access + "\necall");
    m.cpu.run();
    EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kUnmappedAccess) << access;
    EXPECT_EQ(m.cpu.retired(), 2u) << access;
  }
}

TEST(Cpu, FetchFaultDoesNotRetire) {
  // A fetch that never produced an instruction retires nothing; a data
  // fault retires its instruction (the access happened architecturally).
  Machine bad_fetch(R"(
      li t0, 2
      jr t0
  )");
  bad_fetch.cpu.run();
  EXPECT_EQ(bad_fetch.cpu.retired(), 2u);  // li + jr only

  Machine bad_load(R"(
      li t0, 0x102
      lw a0, 0(t0)
      ecall
  )");
  bad_load.cpu.run();
  EXPECT_EQ(bad_load.cpu.halt_reason(), HaltReason::kMisalignedAccess);
  EXPECT_EQ(bad_load.cpu.retired(), 2u);  // li + the faulting lw
}

TEST(HaltReasonNames, AllDistinct) {
  EXPECT_STREQ(to_string(HaltReason::kEcall), "ecall");
  EXPECT_STREQ(to_string(HaltReason::kMisalignedAccess), "misaligned-access");
  EXPECT_STREQ(to_string(HaltReason::kUnmappedAccess), "unmapped-access");
}

TEST(Cpu, FunctionCallAndReturn) {
  Machine m(R"(
      li a0, 20
      call double_it
      call double_it
      ecall
    double_it:
      add a0, a0, a0
      ret
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 80u);
}

TEST(Cpu, Fibonacci) {
  Machine m(R"(
      li a0, 0
      li a1, 1
      li t0, 15     # iterations
    fib:
      add t1, a0, a1
      mv a0, a1
      mv a1, t1
      addi t0, t0, -1
      bnez t0, fib
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(10), 610u);  // fib(15)
  EXPECT_EQ(m.cpu.reg(11), 987u);  // fib(16)
}

TEST(Cpu, BubbleSortInMemory) {
  // Sorts eight words in RAM — exercises nested loops, loads/stores with
  // computed addresses, and register pressure.
  Machine m(R"(
      li s0, 0x1000       # array base
      # store 8 unsorted values
      li t0, 42
      sw t0, 0(s0)
      li t0, 7
      sw t0, 4(s0)
      li t0, 99
      sw t0, 8(s0)
      li t0, 1
      sw t0, 12(s0)
      li t0, 63
      sw t0, 16(s0)
      li t0, 21
      sw t0, 20(s0)
      li t0, 88
      sw t0, 24(s0)
      li t0, 3
      sw t0, 28(s0)
      li s1, 8            # n
    outer:
      li t1, 0            # i
      li t6, 0            # swapped flag
    inner:
      slli t2, t1, 2
      add t2, t2, s0
      lw t3, 0(t2)
      lw t4, 4(t2)
      bge t4, t3, no_swap
      sw t4, 0(t2)
      sw t3, 4(t2)
      li t6, 1
    no_swap:
      addi t1, t1, 1
      addi t5, s1, -1
      blt t1, t5, inner
      bnez t6, outer
      lw a0, 0(s0)        # min
      lw a1, 28(s0)       # max
      ecall
  )");
  m.cpu.run(100000);
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kEcall);
  EXPECT_EQ(m.cpu.reg(10), 1u);
  EXPECT_EQ(m.cpu.reg(11), 99u);
  // Whole array sorted ascending.
  std::uint32_t prev = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t v = m.ram.load(0x1000 + 4 * static_cast<std::uint32_t>(i), 4);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Cpu, ConsoleMmio) {
  Machine m(R"(
      li t0, 0x10000000
      li t1, 72      # 'H'
      sb t1, 0(t0)
      li t1, 105     # 'i'
      sb t1, 0(t0)
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.console.output(), "Hi");
}

TEST(Cpu, X0IsHardwiredZero) {
  Machine m(R"(
      addi zero, zero, 42
      mv a0, zero
      ecall
  )");
  m.cpu.run();
  EXPECT_EQ(m.cpu.reg(0), 0u);
  EXPECT_EQ(m.cpu.reg(10), 0u);
}

TEST(Cpu, BadInstructionHalts) {
  Machine m("ecall");
  m.ram.store(0, 4, 0xffffffffu);  // overwrite with garbage
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kBadInstruction);
}

TEST(Cpu, MaxStepsGuard) {
  Machine m(R"(
    spin:
      j spin
  )");
  const auto steps = m.cpu.run(1000);
  EXPECT_EQ(steps, 1000u);
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kMaxSteps);
}

TEST(Cpu, EbreakHalts) {
  Machine m("ebreak");
  m.cpu.run();
  EXPECT_EQ(m.cpu.halt_reason(), HaltReason::kEbreak);
}

TEST(Bus, UnmappedAccessThrows) {
  Bus bus;
  Ram ram{64};
  bus.map(0, 64, &ram);
  EXPECT_THROW(bus.load(100, 4), std::out_of_range);
  EXPECT_THROW(bus.map(32, 64, &ram), std::invalid_argument);  // overlap
  // End addresses are computed in 64 bits: no access wraps back to 0.
  EXPECT_THROW(bus.load(0xffffffffu, 1), std::out_of_range);
  EXPECT_THROW(bus.store(0xfffffffeu, 4, 0), std::out_of_range);
  EXPECT_THROW(ram.load(0xffffffffu, 1), std::out_of_range);
  EXPECT_THROW(ram.store(0xfffffffcu, 4, 0), std::out_of_range);
}

TEST(RvAsm, ReportsErrors) {
  auto expect_err = [](const std::string& src) {
    const auto r = assemble_rv32(src);
    EXPECT_TRUE(std::holds_alternative<RvAsmError>(r)) << src;
  };
  expect_err("bogus a0, a1");
  expect_err("addi a0, a1");          // missing operand
  expect_err("addi a0, a1, 5000");    // imm out of range
  expect_err("beq a0, a1, nowhere");  // unknown label
  expect_err("dup: dup: nop");        // duplicate label
  expect_err("lw a0, a1");            // bad memory operand
}

}  // namespace
}  // namespace hhpim::riscv
