// Host-in-the-loop suite: the per-slice RISC-V scheduler co-simulation
// (sys::HostConfig) and its byte-contracts — deterministic cycles and
// energy, host state saved by save_state(), the reuse
// key gated on the feature flag, and memo replay of host devices (fleet
// byte identity with the host on is the differential oracle's,
// test_oracle.cpp). The inverse contract matters just as much: with the
// host disabled, no output byte anywhere mentions the feature.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "fleet/outcome_cache.hpp"
#include "fleet/simulator.hpp"
#include "fleet_cases.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"
#include "placement/lut_cache.hpp"
#include "state_bytes.hpp"

namespace hhpim {
namespace {

sys::SystemConfig host_config(placement::LutCache* luts = nullptr) {
  sys::SystemConfig c;
  c.lut_t_entries = 16;
  c.lut_k_blocks = 16;
  c.lut_cache = luts;
  c.host.enabled = true;
  return c;
}

// --- processor-level contracts -----------------------------------------------

TEST(HostLoop, SliceRunsSchedulerDeterministically) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache luts;
  sys::Processor a{host_config(&luts), model};
  sys::Processor b{host_config(&luts), model};

  const int loads[] = {3, 1, 0, 4, 2};
  for (const int n : loads) {
    const sys::SliceStats sa = a.run_slice(n);
    const sys::SliceStats sb = b.run_slice(n);
    EXPECT_GT(sa.host_cycles, 0u);  // the scheduler runs even when idle
    EXPECT_EQ(sa.host_cycles, sb.host_cycles);
    EXPECT_DOUBLE_EQ(sa.energy.as_pj(), sb.energy.as_pj());
    EXPECT_EQ(state_bytes(a), state_bytes(b));
  }
  // More dispatched tasks = more scheduler work.
  sys::Processor c{host_config(&luts), model};
  sys::Processor d{host_config(&luts), model};
  EXPECT_GT(c.run_slice(8).host_cycles, d.run_slice(1).host_cycles);
}

TEST(HostLoop, HostEnergyLandsInTheLedger) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache luts;
  sys::SystemConfig off = host_config(&luts);
  off.host.enabled = false;
  sys::Processor with{host_config(&luts), model};
  sys::Processor without{off, model};

  const sys::SliceStats s_on = with.run_slice(3);
  const sys::SliceStats s_off = without.run_slice(3);
  EXPECT_GT(s_on.host_cycles, 0u);
  EXPECT_EQ(s_off.host_cycles, 0u);
  EXPECT_GT(s_on.energy.as_pj(), s_off.energy.as_pj())
      << "host cycles must add energy, not just a counter";
  // Host time is accounting-only: it never extends the slice's busy time.
  EXPECT_EQ(s_on.busy_time.as_ps(), s_off.busy_time.as_ps());
}

TEST(HostLoop, SavedStateAndResetFoldHostState) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache luts;
  sys::Processor p{host_config(&luts), model};
  const std::string fresh = state_bytes(p);

  (void)p.run_slice(3);
  const std::string after = state_bytes(p);
  EXPECT_NE(after, fresh) << "scheduler state at 0x800 moved";

  // Same slice sequence on a fresh machine reaches the same state...
  sys::Processor q{host_config(&luts), model};
  (void)q.run_slice(3);
  EXPECT_EQ(state_bytes(q), after);

  // ...and reset() restores the initial host RAM image exactly.
  p.reset();
  EXPECT_EQ(state_bytes(p), fresh);
}

TEST(HostLoop, SaveLoadRoundtripRestoresHostRam) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache luts;
  sys::Processor p{host_config(&luts), model};
  (void)p.run_slice(3);
  (void)p.run_slice(1);

  const std::string blob = state_bytes(p);

  // Continue the original; replay the same tail on a restored clone.
  const sys::SliceStats cont = p.run_slice(4);

  sys::Processor clone{host_config(&luts), model};
  ByteReader r{blob};
  clone.load_state(r);
  EXPECT_EQ(state_bytes(clone), blob);
  const sys::SliceStats replay = clone.run_slice(4);

  EXPECT_EQ(replay.host_cycles, cont.host_cycles);
  EXPECT_DOUBLE_EQ(replay.energy.as_pj(), cont.energy.as_pj());
  EXPECT_EQ(state_bytes(clone), state_bytes(p));
}

TEST(HostLoop, ReuseKeyGatedOnEnable) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  sys::SystemConfig off;
  off.lut_t_entries = 16;
  off.lut_k_blocks = 16;

  // Disabled: host fields are inert — the key must not move (feature-off
  // builds stay bit-exchangeable with pre-feature builds).
  sys::SystemConfig off_tweaked = off;
  off_tweaked.host.clock_ghz = 3.0;
  off_tweaked.host.ram_bytes = 8192;
  off_tweaked.host.program = "ecall";
  EXPECT_EQ(sys::processor_reuse_key(off, model),
            sys::processor_reuse_key(off_tweaked, model));

  // Enabled: the flag, the program, and every cost knob separate machines.
  sys::SystemConfig on = off;
  on.host.enabled = true;
  EXPECT_NE(sys::processor_reuse_key(on, model),
            sys::processor_reuse_key(off, model));

  sys::SystemConfig other = on;
  other.host.clock_ghz = 2.0;
  EXPECT_NE(sys::processor_reuse_key(on, model),
            sys::processor_reuse_key(other, model));

  other = on;
  other.host.program = "ecall";
  EXPECT_NE(sys::processor_reuse_key(on, model),
            sys::processor_reuse_key(other, model));

  other = on;
  other.host.cycles.div = 16;
  EXPECT_NE(sys::processor_reuse_key(on, model),
            sys::processor_reuse_key(other, model));
}

TEST(HostLoop, BadProgramsFailLoudly) {
  const nn::Model model = nn::zoo::efficientnet_b0();
  placement::LutCache luts;

  sys::SystemConfig bad_asm = host_config(&luts);
  bad_asm.host.program = "bogus a0, a1";
  EXPECT_THROW((sys::Processor{bad_asm, model}), std::invalid_argument);

  // A wedged scheduler (never reaches ECALL) is a hard error, not a stat.
  sys::SystemConfig spin = host_config(&luts);
  spin.host.program = "spin:\n j spin";
  spin.host.max_steps_per_slice = 1000;
  sys::Processor wedged{spin, model};
  EXPECT_THROW((void)wedged.run_slice(1), std::runtime_error);

  // EBREAK is equally fatal — only ECALL means "slice done".
  sys::SystemConfig brk = host_config(&luts);
  brk.host.program = "ebreak";
  sys::Processor breaks{brk, model};
  EXPECT_THROW((void)breaks.run_slice(1), std::runtime_error);
}

// --- fleet-level contracts ---------------------------------------------------

fleet::FleetSpec host_fleet() {
  fleet::FleetSpec spec = fleet::cases::small_fleet();
  spec.config.host.enabled = true;
  return spec;
}

using fleet::cases::run_with;

TEST(FleetHostLoop, MemoReplaysHostDevices) {
  // The default scheduler's RAM state is a pure function of (state, load),
  // so identical devices replay through the outcome memo with the host on.
  const fleet::FleetSpec spec = host_fleet();
  placement::LutCache luts;
  fleet::OutcomeCache memo;
  (void)run_with(spec, 1, &luts, &memo);  // warm
  const fleet::FleetResult warm = run_with(spec, 1, &luts, &memo);
  EXPECT_GT(warm.memo_replayed_devices, 0u);
  EXPECT_EQ(warm.memo_exact_devices, 0u)
      << "every device of a warm homogeneous host fleet must replay";
  EXPECT_NE(warm.to_jsonl().find("\"host_cycles\":"), std::string::npos);
  EXPECT_NE(warm.summary_to_json().find("\"host_cycles\":"), std::string::npos);
}

TEST(FleetHostLoop, FeatureOffEmitsNoHostBytes) {
  fleet::FleetSpec spec = host_fleet();
  spec.config.host.enabled = false;
  placement::LutCache luts;
  const fleet::FleetResult r = run_with(spec, 1, &luts, nullptr);
  EXPECT_EQ(r.to_jsonl().find("host_cycles"), std::string::npos);
  EXPECT_EQ(r.summary_to_json().find("host_cycles"), std::string::npos);
  for (const fleet::DeviceResult& d : r.devices) {
    EXPECT_EQ(d.host_cycles, 0u);
  }
}

TEST(FleetHostLoop, ContentDigestTracksHostConfig) {
  const fleet::FleetSpec off = [] {
    fleet::FleetSpec s = host_fleet();
    s.config.host.enabled = false;
    return s;
  }();
  const fleet::FleetSpec on = host_fleet();
  EXPECT_NE(on.content_digest(), off.content_digest());

  fleet::FleetSpec other_clock = host_fleet();
  other_clock.config.host.clock_ghz = 2.0;
  EXPECT_NE(on.content_digest(), other_clock.content_digest());
}

}  // namespace
}  // namespace hhpim
