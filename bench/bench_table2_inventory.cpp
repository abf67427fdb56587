// Table II substitute. The paper's Table II reports FPGA resource usage
// (LUTs/FFs/BRAMs/DSPs of the Genesys2 prototype) — a synthesis artifact with
// no simulator equivalent. We substitute the component inventory of each
// simulated processor, which captures the same structural information
// (what exists, how many, how big); see DESIGN.md.
#include <cstdio>

#include "common/table.hpp"
#include "hhpim/processor.hpp"
#include "nn/zoo.hpp"

using namespace hhpim;

int main() {
  std::printf("== Table II (substituted): simulated component inventory ==\n");
  std::printf("(paper reports FPGA LUT/FF/BRAM/DSP usage; our substrate is a\n"
              " simulator, so we report the structural inventory instead)\n\n");

  const nn::Model model = nn::zoo::efficientnet_b0();
  Table t{{"Architecture", "HP mods", "LP mods", "MRAM banks", "SRAM banks",
           "PEs", "Controllers", "MRAM", "SRAM"}};
  for (const auto& arch : sys::ArchConfig::paper_table1()) {
    sys::SystemConfig c;
    c.arch = arch;
    c.lut_t_entries = 16;  // inventory only; keep construction instant
    c.lut_k_blocks = 16;
    sys::Processor p{c, model};
    const auto inv = p.inventory();
    t.add_row({arch.name, std::to_string(inv.hp_modules), std::to_string(inv.lp_modules),
               std::to_string(inv.mram_banks), std::to_string(inv.sram_banks),
               std::to_string(inv.pes), std::to_string(inv.controllers),
               std::to_string(inv.mram_bytes / 1024) + " kB",
               std::to_string(inv.sram_bytes / 1024) + " kB"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Paper Table II (for reference, HH-PIM prototype): Rocket core 14998 LUTs,\n"
              "HP-PIM cluster 6951 LUTs / 128 BRAMs / 8 DSPs, LP-PIM cluster 6680 LUTs /\n"
              "128 BRAMs / 8 DSPs.\n");
  return 0;
}
