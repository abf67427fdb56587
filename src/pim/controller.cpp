#include "pim/controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace hhpim::pim {

const char* to_string(ControllerState s) {
  switch (s) {
    case ControllerState::kIdle: return "IDLE";
    case ControllerState::kFetch: return "FETCH";
    case ControllerState::kDecode: return "DECODE";
    case ControllerState::kLoad: return "LOAD";
    case ControllerState::kExecute: return "EXECUTE";
    case ControllerState::kStore: return "STORE";
    case ControllerState::kHalted: return "HALTED";
  }
  return "?";
}

PimController::PimController(ControllerConfig config, std::vector<PimModule*> modules,
                             DataAllocatorConfig alloc_config,
                             energy::EnergyLedger* ledger)
    : config_(std::move(config)),
      modules_(std::move(modules)),
      queue_(),
      allocator_(std::move(alloc_config), modules_.size(), ledger),
      ledger_(ledger),
      id_(ledger != nullptr ? ledger->register_component(config_.name)
                            : energy::ComponentId{}),
      tracker_(ledger, id_, config_.leakage) {
  if (modules_.empty()) {
    throw std::invalid_argument("PimController: needs at least one module");
  }
}

void PimController::for_selected(std::uint8_t mask,
                                 const std::function<void(PimModule&)>& fn) {
  for (std::size_t i = 0; i < modules_.size() && i < 8; ++i) {
    if ((mask & (1u << i)) != 0) fn(*modules_[i]);
  }
}

Time PimController::modules_idle_at() const {
  Time t = Time::zero();
  for (const auto* m : modules_) t = std::max(t, m->busy_until());
  return t;
}

Time PimController::execute(Time now, const isa::Instruction& inst) {
  // FETCH + DECODE overhead.
  const Time decoded =
      now + config_.cycle * static_cast<std::int64_t>(config_.fetch_cycles +
                                                      config_.decode_cycles);
  if (ledger_ != nullptr) {
    ledger_->add(id_, energy::Activity::kControl, config_.instruction_energy);
  }

  using energy::MemoryKind;
  const auto mem_kind = [&]() -> MemoryKind {
    return inst.mem == isa::MemSel::kMram ? MemoryKind::kMram : MemoryKind::kSram;
  };

  Time done = decoded;
  switch (inst.category) {
    case isa::Category::kCompute: {
      state_ = ControllerState::kLoad;  // LOAD/EXECUTE run inside the modules
      switch (static_cast<isa::ComputeOp>(inst.opcode)) {
        case isa::ComputeOp::kMac:
        case isa::ComputeOp::kGemv:  // a GEMV of length imm streams imm weights
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.compute_burst(decoded, mem_kind(), inst.imm);
          });
          break;
        case isa::ComputeOp::kRelu:
        case isa::ComputeOp::kRequant:
          // Activation-only datapath work: no weight fetch.
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.pe_only_burst(decoded, inst.imm);
          });
          break;
      }
      state_ = ControllerState::kExecute;
      break;
    }
    case isa::Category::kDataMove: {
      state_ = ControllerState::kStore;
      switch (static_cast<isa::DataMoveOp>(inst.opcode)) {
        case isa::DataMoveOp::kLoad:
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.stream_in(decoded, mem_kind(), inst.imm);
          });
          break;
        case isa::DataMoveOp::kStore:
        case isa::DataMoveOp::kXferOut:
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.stream_out(decoded, mem_kind(), inst.imm);
          });
          break;
        case isa::DataMoveOp::kXferIn:
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.stream_in(decoded, mem_kind(), inst.imm);
          });
          break;
        case isa::DataMoveOp::kIntra:
          for_selected(inst.module_mask, [&](PimModule& m) {
            const MemoryKind from = mem_kind();
            const MemoryKind to = from == MemoryKind::kMram ? MemoryKind::kSram
                                                            : MemoryKind::kMram;
            m.intra_move(decoded, from, to, inst.imm);
          });
          break;
      }
      break;
    }
    case isa::Category::kConfig: {
      switch (static_cast<isa::ConfigOp>(inst.opcode)) {
        case isa::ConfigOp::kPowerOn:
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.bank(mem_kind()).power_on(decoded);
          });
          break;
        case isa::ConfigOp::kPowerOff:
          for_selected(inst.module_mask, [&](PimModule& m) {
            m.bank(mem_kind()).power_off(decoded);
          });
          break;
        case isa::ConfigOp::kSetBase:
        case isa::ConfigOp::kSetStride:
          break;  // address generator state; no timing effect at this level
      }
      break;
    }
    case isa::Category::kSync: {
      switch (static_cast<isa::SyncOp>(inst.opcode)) {
        case isa::SyncOp::kNop:
          break;
        case isa::SyncOp::kBarrier: {
          Time idle = decoded;
          for_selected(inst.module_mask == 0 ? 0xff : inst.module_mask,
                       [&](PimModule& m) { idle = std::max(idle, m.busy_until()); });
          done = idle;
          break;
        }
        case isa::SyncOp::kFence:
          done = modules_idle_at();
          done = std::max(done, decoded);
          break;
        case isa::SyncOp::kHalt:
          state_ = ControllerState::kHalted;
          break;
      }
      break;
    }
  }
  ++retired_;
  return std::max(done, decoded);
}

RunSummary PimController::run_program(Time now,
                                      const std::vector<isa::Instruction>& program) {
  RunSummary summary;
  summary.start = now;
  tracker_.power_on(now);
  state_ = ControllerState::kFetch;

  Time t = now;
  for (const auto& inst : program) {
    if (state_ == ControllerState::kHalted) break;
    t = execute(t, inst);
    ++summary.instructions;
  }
  // Completion: controller timeline and all module work drained.
  summary.complete = std::max(t, modules_idle_at());
  tracker_.power_off(summary.complete);
  if (state_ != ControllerState::kHalted) state_ = ControllerState::kIdle;
  return summary;
}

}  // namespace hhpim::pim
