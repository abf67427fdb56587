#include "riscv/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::riscv {

std::uint32_t Ram::load(std::uint32_t addr, unsigned size) {
  if (std::uint64_t{addr} + size > data_.size()) {
    throw std::out_of_range("Ram: load beyond end at 0x" + std::to_string(addr));
  }
  std::uint32_t v = 0;
  for (unsigned i = 0; i < size; ++i) v |= static_cast<std::uint32_t>(data_[addr + i]) << (8 * i);
  return v;
}

void Ram::store(std::uint32_t addr, unsigned size, std::uint32_t value) {
  if (std::uint64_t{addr} + size > data_.size()) {
    throw std::out_of_range("Ram: store beyond end at 0x" + std::to_string(addr));
  }
  for (unsigned i = 0; i < size; ++i) data_[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void Ram::load_image(std::uint32_t addr, const std::uint8_t* bytes, std::size_t n) {
  if (std::uint64_t{addr} + n > data_.size()) {
    throw std::out_of_range("Ram: image does not fit");
  }
  std::copy_n(bytes, n, data_.begin() + addr);
}

void Console::store(std::uint32_t addr, unsigned, std::uint32_t value) {
  if (addr == 0) out_.push_back(static_cast<char>(value & 0xff));
}

void Bus::map(std::uint32_t base, std::uint32_t size, Device* device) {
  for (const auto& r : regions_) {
    const bool overlap = base < std::uint64_t{r.base} + r.size &&
                         r.base < std::uint64_t{base} + size;
    if (overlap) throw std::invalid_argument("Bus: overlapping region");
  }
  regions_.push_back(Region{base, size, device});
}

Bus::Region* Bus::find(std::uint32_t addr, unsigned size) {
  for (auto& r : regions_) {
    if (addr >= r.base && std::uint64_t{addr} + size <= std::uint64_t{r.base} + r.size) {
      return &r;
    }
  }
  return nullptr;
}

std::uint32_t Bus::load(std::uint32_t addr, unsigned size) {
  Region* r = find(addr, size);
  if (r == nullptr) {
    throw std::out_of_range("Bus: load from unmapped address 0x" + std::to_string(addr));
  }
  return r->device->load(addr - r->base, size);
}

void Bus::store(std::uint32_t addr, unsigned size, std::uint32_t value) {
  Region* r = find(addr, size);
  if (r == nullptr) {
    throw std::out_of_range("Bus: store to unmapped address 0x" + std::to_string(addr));
  }
  r->device->store(addr - r->base, size, value);
}

bool Bus::try_load(std::uint32_t addr, unsigned size, std::uint32_t& out) {
  Region* r = find(addr, size);
  if (r == nullptr) return false;
  out = r->device->load(addr - r->base, size);
  return true;
}

bool Bus::try_store(std::uint32_t addr, unsigned size, std::uint32_t value) {
  Region* r = find(addr, size);
  if (r == nullptr) return false;
  r->device->store(addr - r->base, size, value);
  return true;
}

}  // namespace hhpim::riscv
