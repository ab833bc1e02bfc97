// Full-system simulator: 4 workload-driven cores, the 3-level cache
// hierarchy, the memory-encryption engine, and multi-channel DDR3 DRAM —
// the paper's Table 1 system.
//
// Protection configurations swap in/out the encryption engine and its
// counter scheme, reproducing the Figure 8 comparison:
//   kNone         — plain DRAM (normalization baseline)
//   kEncrypted    — authenticated encryption with the configured
//                   MacPlacement and CounterSchemeKind (BMT baseline =
//                   kSeparate + kMonolithic56; the paper's proposal =
//                   kEccLane + kDelta)
//
// Observer schemes can be attached to watch the L3 writeback stream
// without affecting timing — this lets the Table 2 bench measure several
// counter representations in a single simulation pass.
#pragma once

#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "common/stats.h"
#include "counters/counter_scheme.h"
#include "dram/dram_system.h"
#include "engine/encryption_engine.h"
#include "engine/layout.h"
#include "sim/core_model.h"
#include "sim/workload.h"

namespace secmem {

enum class Protection : std::uint8_t { kNone, kEncrypted };

struct SystemConfig {
  unsigned cores = 4;
  double base_ipc = 2.0;  ///< peak retire rate per core
  unsigned mlp = 8;       ///< outstanding misses a core can overlap
  HierarchyConfig hierarchy{};
  DramConfig dram{};
  Protection protection = Protection::kEncrypted;
  EngineConfig engine{};
  CounterSchemeKind scheme = CounterSchemeKind::kDelta;
  std::uint64_t protected_bytes = 512ULL * 1024 * 1024;  ///< paper Table 1
  std::uint64_t onchip_bytes = 3 * 1024;
  std::uint64_t seed = 42;
  /// References per core excluded from the reported IPC (cache and
  /// metadata warm-up).
  std::uint64_t warmup_refs = 0;
};

struct SimResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0;
  std::uint64_t reencryptions = 0;  ///< primary scheme's re-encrypt events
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
};

class SystemSimulator {
 public:
  SystemSimulator(const SystemConfig& config, const WorkloadProfile& profile);

  /// Attach a scheme that observes every L3 writeback (timing-neutral).
  void add_observer(CounterScheme* observer) {
    observers_.push_back(observer);
  }

  /// Run `refs_per_core` memory references on each core from the
  /// configured workload profile; returns overall timing and event counts.
  SimResult run(std::uint64_t refs_per_core);

  /// Run pre-recorded per-core traces (see sim/trace.h) to exhaustion.
  /// `traces` must have at most config.cores entries; shorter cores
  /// simply finish earlier. config.warmup_refs applies per core.
  SimResult run_trace(const std::vector<std::vector<MemRef>>& traces);

  StatRegistry& stats() noexcept { return stats_; }
  const StatRegistry& stats() const noexcept { return stats_; }

  const CounterScheme* scheme() const noexcept { return scheme_.get(); }

 private:
  // Forward a data-region writeback into the engine/DRAM and observers.
  void handle_writeback(double now, std::uint64_t addr);

  /// Shared driver: `next(core)` supplies core-local reference streams,
  /// `remaining[core]` their lengths; the first warmup_refs per core are
  /// excluded from the reported IPC. A template, so the per-reference
  /// call inlines.
  template <class NextRef>
  SimResult run_with(NextRef next, std::vector<std::uint64_t> remaining,
                     std::uint64_t warmup_refs);

  SystemConfig config_;
  WorkloadProfile profile_;
  StatRegistry stats_;
  DramSystem dram_;
  CacheHierarchy hierarchy_;
  std::unique_ptr<CounterScheme> scheme_;
  std::unique_ptr<SecureRegionLayout> layout_;
  std::unique_ptr<EncryptionEngine> engine_;
  std::vector<CounterScheme*> observers_;
};

}  // namespace secmem
