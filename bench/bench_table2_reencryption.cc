// Table 2 reproduction: average block-group re-encryptions per 10^9
// cycles, for split counters [13] vs 7-bit delta vs dual-length delta.
//
// One simulation pass per workload: the cache hierarchy and timing run
// once (counter representation does not change the writeback stream), and
// all three schemes observe the identical L3 writeback sequence. The
// cycle count from the pass normalizes events to "per billion cycles",
// and — like the paper, which averages three full executions — we average
// over three seeds.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_metrics.h"
#include "counters/delta_counter.h"
#include "counters/dual_length_delta.h"
#include "counters/split_counter.h"
#include "bench_util.h"
#include "sim/system_sim.h"

using namespace secmem;

int main(int argc, char** argv) {
  bool csv = false;
  std::uint64_t refs = 4000000;
  int runs = 3;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--csv") {
      csv = true;
    } else if (positional++ == 0) {
      refs = std::strtoull(argv[i], nullptr, 10);
    } else {
      runs = std::atoi(argv[i]);
    }
  }

  std::printf(
      "=== Table 2: re-encryptions per 10^9 cycles "
      "(avg of %d runs, %llu refs/core) ===\n\n",
      runs, static_cast<unsigned long long>(refs));
  std::printf("%-14s %18s %14s %20s\n", "program", "7-bit split [13]",
              "7-bit delta", "dual-length delta");

  secmem_bench::MetricsDump metrics("table2_reencryption");
  for (const WorkloadProfile& profile : parsec_profiles()) {
    double split_rate = 0, delta_rate = 0, dual_rate = 0;
    for (int run = 0; run < runs; ++run) {
      SystemConfig config = secmem_bench::counter_dynamics_config();
      config.seed = 42 + run;

      const BlockIndex blocks = config.protected_bytes / 64;
      SplitCounters split(blocks);
      DeltaCounters delta(blocks);
      DualLengthDeltaCounters dual(blocks);

      SystemSimulator sim(config, profile);
      sim.add_observer(&split);
      sim.add_observer(&delta);
      sim.add_observer(&dual);
      const SimResult result = sim.run(refs);

      const double scale = 1e9 / static_cast<double>(result.cycles);
      split_rate += static_cast<double>(split.reencryptions()) * scale;
      delta_rate += static_cast<double>(delta.reencryptions()) * scale;
      dual_rate += static_cast<double>(dual.reencryptions()) * scale;
      metrics.registry().merge_from(
          sim.stats(),
          metric_path({profile.name, "run" + std::to_string(run)}));
    }
    StatRegistry& reg = metrics.registry();
    reg.scalar(profile.name + ".split_per_gcycle").sample(split_rate / runs);
    reg.scalar(profile.name + ".delta_per_gcycle").sample(delta_rate / runs);
    reg.scalar(profile.name + ".dual_per_gcycle").sample(dual_rate / runs);
    if (csv) {
      std::printf("csv,%s,%.0f,%.0f,%.0f\n", profile.name.c_str(),
                  split_rate / runs, delta_rate / runs, dual_rate / runs);
    } else {
      std::printf("%-14s %18.0f %14.0f %20.0f\n", profile.name.c_str(),
                  split_rate / runs, delta_rate / runs, dual_rate / runs);
    }
  }

  std::printf(
      "\npaper's shape: delta <= split everywhere (equal when writes are\n"
      "scattered, e.g. canneal); dual-length lowest overall EXCEPT facesim,\n"
      "where concurrent hot delta-groups overflow the 6-bit lanes;\n"
      "swaptions/blackscholes/bodytrack stay at 0 (cache-resident).\n");
  return 0;
}
