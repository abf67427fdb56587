// PIM Controller (Fig. 2): the per-cluster controller with a
// FETCH-DECODE-LOAD-EXECUTE-STORE state machine, instruction decoder,
// command encoder, data allocator and CMD/MEM interface logic.
//
// The controller consumes PIM instructions from an InstructionQueue and
// dispatches command signals to the modules of its cluster. Every
// instruction costs fetch+decode cycles of controller time and a fixed
// control energy; module-level work is then timed by the modules themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "energy/ledger.hpp"
#include "isa/instruction.hpp"
#include "pim/data_allocator.hpp"
#include "pim/instruction_queue.hpp"
#include "pim/module.hpp"

namespace hhpim::pim {

/// Controller FSM states (paper Fig. 2).
enum class ControllerState : std::uint8_t {
  kIdle,
  kFetch,
  kDecode,
  kLoad,
  kExecute,
  kStore,
  kHalted,
};

[[nodiscard]] const char* to_string(ControllerState s);

struct ControllerConfig {
  std::string name = "ctrl";
  Time cycle = Time::ns(1.0);      ///< controller clock period
  std::uint32_t fetch_cycles = 1;
  std::uint32_t decode_cycles = 1;
  Energy instruction_energy = Energy::pj(0.8);
  Power leakage = Power::mw(0.12);
};

/// Summary of one program execution.
struct RunSummary {
  Time start;
  Time complete;            ///< all modules idle, HALT retired
  std::uint64_t instructions = 0;
  std::uint64_t decode_errors = 0;
};

class PimController {
 public:
  /// `modules` are non-owning; the cluster owns them and outlives the
  /// controller.
  PimController(ControllerConfig config, std::vector<PimModule*> modules,
                DataAllocatorConfig alloc_config, energy::EnergyLedger* ledger);

  /// Runs a whole program synchronously, advancing an internal timeline that
  /// starts at `now`. Executes until HALT or queue exhaustion.
  RunSummary run_program(Time now, const std::vector<isa::Instruction>& program);

  /// Lower-level: executes a single already-decoded instruction at `now`.
  /// Returns the controller-side completion time (modules may still be busy).
  Time execute(Time now, const isa::Instruction& inst);

  /// Time when every module of the cluster is idle.
  [[nodiscard]] Time modules_idle_at() const;

  [[nodiscard]] ControllerState state() const { return state_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] DataAllocator& allocator() { return allocator_; }
  [[nodiscard]] InstructionQueue& queue() { return queue_; }
  [[nodiscard]] const InstructionQueue& queue() const { return queue_; }
  [[nodiscard]] std::uint64_t instructions_retired() const { return retired_; }

  /// Closes the controller leakage window.
  void settle(Time now) { tracker_.settle(now); }

  /// State walk (common/state_visitor.hpp): FSM state, queue depth, leakage
  /// window and the allocator's link. The retired-instruction counter is
  /// history. Queue contents are never serialized: saving requires a
  /// drained queue (the slice-loop workload path never enqueues), and a
  /// program-driven caller must drain its program before checkpointing.
  template <class V>
  void visit_state(V& v, Time now) {
    v.choice(state_, ControllerState::kHalted, "controller state", config_.name);
    v.drained(queue_.size(), "instruction queue", config_.name);
    tracker_.visit_state(v, now);
    allocator_.visit_state(v, now);
  }

  /// Returns FSM/accounting state to just-constructed (processor reuse).
  /// Queued instructions are not dropped — the slice-loop workload path
  /// never enqueues any; program-driven callers manage the queue themselves.
  void reset_accounting() {
    tracker_.reset(config_.leakage);
    allocator_.reset_accounting();
    state_ = ControllerState::kIdle;
    retired_ = 0;
  }

 private:
  /// Applies `fn` to every module selected by `mask`.
  void for_selected(std::uint8_t mask, const std::function<void(PimModule&)>& fn);

  ControllerConfig config_;
  std::vector<PimModule*> modules_;
  InstructionQueue queue_;
  DataAllocator allocator_;
  energy::EnergyLedger* ledger_;
  energy::ComponentId id_;
  energy::LeakageTracker tracker_;
  ControllerState state_ = ControllerState::kIdle;
  std::uint64_t retired_ = 0;
};

}  // namespace hhpim::pim
