// Table 2 reproduction: average block-group re-encryptions per 10^9
// cycles, for split counters [13] vs 7-bit delta vs dual-length delta.
//
// One simulation pass per workload: the cache hierarchy and timing run
// once (counter representation does not change the writeback stream), and
// all three schemes observe the identical L3 writeback sequence. The
// cycle count from the pass normalizes events to "per billion cycles",
// and — like the paper, which averages three full executions — we average
// over three seeds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_metrics.h"
#include "counters/delta_counter.h"
#include "counters/dual_length_delta.h"
#include "counters/split_counter.h"
#include "bench_util.h"
#include "engine/secure_memory.h"
#include "sim/system_sim.h"

namespace {
using namespace secmem;

/// One engine being overflow-hammered: hot-block writes overflow its
/// 7-bit delta every kDeltaMax+1 writes, forcing a group re-encryption.
struct DrainRig {
  DrainRig() : mem(config()) {}
  static SecureMemoryConfig config() {
    SecureMemoryConfig config;
    config.size_bytes = 4 * 1024 * 1024;
    return config;
  }

  /// Populate the hot group (re-encryption must move real ciphertext)
  /// and warm up through the first few overflows.
  bool prime() {
    DataBlock block{};
    for (std::uint64_t b = 0; b < 64; ++b) {
      block[0] = static_cast<std::uint8_t>(b + 1);
      if (mem.write_block(b, block) != Status::kOk) return false;
    }
    for (int i = 0; i < 256; ++i)
      if (mem.write_block(0, block) != Status::kOk) return false;
    mem.reset_stats();
    return true;
  }

  /// Hammer until `delta` more groups have re-encrypted, accumulating
  /// wall time into ns_total.
  bool drive(std::uint64_t delta) {
    DataBlock block{};
    const std::uint64_t target = mem.stats().group_reencryptions + delta;
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t writes = 0;
    while (mem.stats().group_reencryptions < target) {
      block[0] = static_cast<std::uint8_t>(writes);
      if (mem.write_block(0, block) != Status::kOk) return false;
      ++writes;
    }
    ns_total += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return true;
  }

  /// Time `n` hot-block writes straight after an overflow — the delta is
  /// fresh, so none of them re-encrypts. This is the baseline cost the
  /// per-group number amortizes 127 of.
  bool time_plain_writes(std::uint64_t n) {
    DataBlock block{};
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
      block[0] = static_cast<std::uint8_t>(i);
      if (mem.write_block(0, block) != Status::kOk) return false;
    }
    plain_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    plain_writes += n;
    return true;
  }

  double ns_per_group() const {
    // plain_ns covers writes inside a cycle that the next drive() then
    // completes, so the full cost of a group cycle is the sum of both.
    const std::uint64_t g = mem.stats().group_reencryptions;
    return g ? (ns_total + plain_ns) / static_cast<double>(g) : -1;
  }
  /// ns_per_group minus the amortized 127 plain writes: the cost of the
  /// group drain itself (gather + decrypt + re-encrypt + MAC + lane pack
  /// + one counter-line sync for 63 blocks).
  double drain_ns_per_group() const {
    if (!plain_writes) return -1;
    const double w = plain_ns / static_cast<double>(plain_writes);
    return ns_per_group() - 127.0 * w;
  }
  std::uint64_t groups() const { return mem.stats().group_reencryptions; }

  SecureMemory mem;
  double ns_total = 0;
  double plain_ns = 0;
  std::uint64_t plain_writes = 0;
};

/// Price `target_groups` re-encryptions, in short chunks interleaved
/// with samples of the plain hot-write baseline so clock/thermal drift
/// hits both equally. The kDeltaMax non-overflowing writes per group are
/// amortized into the full-cycle figure; the drain figure subtracts them
/// (the microbench BM_CtrKeystreamBatch64 isolates the kernel itself).
bool time_group_reencryption(std::uint64_t target_groups, DrainRig& rig) {
  if (!rig.prime()) return false;
  const std::uint64_t chunk = std::max<std::uint64_t>(target_groups / 16, 1);
  while (rig.groups() < target_groups) {
    if (!rig.drive(chunk)) return false;
    if (rig.groups() >= target_groups) break;
    // Fresh deltas right after an overflow: sample the plain hot-write
    // baseline the drain estimate subtracts (100 < kDeltaMax, so none of
    // these writes re-encrypts; the next drive() completes the cycle).
    if (!rig.time_plain_writes(100)) return false;
  }
  return rig.ns_per_group() > 0;
}
}  // namespace

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

  // --- functional drain cost of one group re-encryption ---------------
  // The simulator above counts re-encryption EVENTS; this phase prices
  // one in the functional engine's batched group drain (crypt_batch /
  // compute_batch / pack_lane_batch over the group's 63 other blocks).
  const std::uint64_t target_groups = refs >= 1000000 ? 2048 : 256;
  DrainRig rig;
  if (time_group_reencryption(target_groups, rig)) {
    const double cycle_ns = rig.ns_per_group();
    const double drain_ns = rig.drain_ns_per_group();
    StatRegistry& reg = metrics.registry();
    reg.scalar("bench.reenc_batched_ns_per_group").sample(cycle_ns);
    if (drain_ns > 0)
      reg.scalar("bench.reenc_batched_drain_ns").sample(drain_ns);
    std::printf(
        "\n=== group re-encryption drain (functional engine) ===\n"
        "full overflow cycle (127 plain writes + drain): %8.0f ns/group "
        "(%llu groups)\n",
        cycle_ns, static_cast<unsigned long long>(rig.groups()));
    if (drain_ns > 0) {
      std::printf(
          "drain only (cycle minus measured plain-write baseline): "
          "%8.0f ns/group\n",
          drain_ns);
    }
    if (csv) std::printf("csv,reenc_drain,%.0f\n", cycle_ns);
  } else {
    std::fprintf(stderr, "group re-encryption drain phase FAILED\n");
    return 1;
  }
  return 0;
}
