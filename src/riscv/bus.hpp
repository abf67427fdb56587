// System bus of the host processor (Fig. 3): the RISC-V core talks to RAM
// and memory-mapped devices (a UART-style console) through this bus.
// Addresses are 32-bit; devices are mapped at fixed base addresses. Region
// bounds are checked in 64 bits, so an access near 0xffffffff cannot wrap
// its end address back into a mapped region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hhpim::riscv {

/// A bus-attached device. Accesses are little-endian, `size` is 1, 2 or 4,
/// and `addr` is the offset from the device base.
class Device {
 public:
  virtual ~Device() = default;
  virtual std::uint32_t load(std::uint32_t addr, unsigned size) = 0;
  virtual void store(std::uint32_t addr, unsigned size, std::uint32_t value) = 0;
};

/// Plain RAM.
class Ram : public Device {
 public:
  explicit Ram(std::size_t bytes) : data_(bytes, 0) {}

  std::uint32_t load(std::uint32_t addr, unsigned size) override;
  void store(std::uint32_t addr, unsigned size, std::uint32_t value) override;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const std::uint8_t* data() const { return data_.data(); }
  /// Direct write access (checkpoint restore). Like load_image, writes
  /// bypass the Bus: a BlockEngine running from this RAM must clear_cache().
  [[nodiscard]] std::uint8_t* data() { return data_.data(); }
  /// Copies a blob into RAM (program loading).
  void load_image(std::uint32_t addr, const std::uint8_t* bytes, std::size_t n);

 private:
  std::vector<std::uint8_t> data_;
};

/// Write-only console at offset 0 (one byte per store); tests read back the
/// collected output.
class Console : public Device {
 public:
  std::uint32_t load(std::uint32_t, unsigned) override { return 0; }
  void store(std::uint32_t addr, unsigned size, std::uint32_t value) override;
  [[nodiscard]] const std::string& output() const { return out_; }

 private:
  std::string out_;
};

/// The address decoder.
class Bus {
 public:
  /// Maps `device` at [base, base+size). Overlapping regions are rejected.
  void map(std::uint32_t base, std::uint32_t size, Device* device);

  std::uint32_t load(std::uint32_t addr, unsigned size);
  void store(std::uint32_t addr, unsigned size, std::uint32_t value);

  /// Non-throwing variants for the CPU cores: an access outside every mapped
  /// region returns false (the core halts with `HaltReason::kUnmappedAccess`)
  /// instead of unwinding through the dispatch loop.
  [[nodiscard]] bool try_load(std::uint32_t addr, unsigned size, std::uint32_t& out);
  [[nodiscard]] bool try_store(std::uint32_t addr, unsigned size, std::uint32_t value);

 private:
  struct Region {
    std::uint32_t base;
    std::uint32_t size;
    Device* device;
  };
  Region* find(std::uint32_t addr, unsigned size);
  std::vector<Region> regions_;
};

}  // namespace hhpim::riscv
