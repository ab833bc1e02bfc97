#include "sim/system_sim.h"

#include <algorithm>
#include <cmath>

namespace secmem {

SystemSimulator::SystemSimulator(const SystemConfig& config,
                                 const WorkloadProfile& profile)
    : config_(config),
      profile_(profile),
      dram_(config.dram, stats_),
      hierarchy_(config.hierarchy, stats_) {
  if (config.protection == Protection::kEncrypted) {
    scheme_ = make_counter_scheme(config.scheme,
                                  config.protected_bytes / 64);
    LayoutParams params;
    params.data_bytes = config.protected_bytes;
    params.blocks_per_counter_line = scheme_->blocks_per_storage_line();
    params.onchip_bytes = config.onchip_bytes;
    params.separate_macs =
        config.engine.mac_placement == MacPlacement::kSeparate;
    params.counter_bits_per_block = scheme_->bits_per_block();
    layout_ = std::make_unique<SecureRegionLayout>(params);
    engine_ = std::make_unique<EncryptionEngine>(config.engine, *scheme_,
                                                 *layout_, dram_, stats_);
  }
}

void SystemSimulator::handle_writeback(double now, std::uint64_t addr) {
  const auto cycle = static_cast<std::uint64_t>(now);
  for (CounterScheme* observer : observers_) observer->on_write(addr / 64);
  if (engine_) {
    engine_->write_block(cycle, addr);
  } else {
    dram_.access(cycle, addr, /*is_write=*/true);
  }
}

SimResult SystemSimulator::run(std::uint64_t refs_per_core) {
  std::vector<WorkloadGenerator> generators;
  generators.reserve(config_.cores);
  for (unsigned c = 0; c < config_.cores; ++c)
    generators.emplace_back(profile_, c, config_.seed);
  std::vector<std::uint64_t> remaining(
      config_.cores, refs_per_core + config_.warmup_refs);
  return run_with(
      [&generators](unsigned core) { return generators[core].next(); },
      std::move(remaining), config_.warmup_refs);
}

SimResult SystemSimulator::run_trace(
    const std::vector<std::vector<MemRef>>& traces) {
  std::vector<std::uint64_t> remaining(config_.cores, 0);
  std::vector<std::size_t> cursor(config_.cores, 0);
  for (unsigned c = 0; c < config_.cores && c < traces.size(); ++c)
    remaining[c] = traces[c].size();
  return run_with(
      [&traces, &cursor](unsigned core) {
        return traces[core][cursor[core]++];
      },
      std::move(remaining), config_.warmup_refs);
}

template <class NextRef>
SimResult SystemSimulator::run_with(NextRef next,
                                    std::vector<std::uint64_t> remaining,
                                    std::uint64_t warmup_refs) {
  const unsigned cores = config_.cores;
  std::vector<CoreModel> core_models;
  core_models.reserve(cores);
  for (unsigned c = 0; c < cores; ++c)
    core_models.emplace_back(config_.base_ipc, config_.mlp);

  // Per-core measured-region start: after warmup_refs (or immediately for
  // streams shorter than the warm-up).
  std::vector<std::uint64_t> measured_start(cores);
  for (unsigned c = 0; c < cores; ++c)
    measured_start[c] =
        remaining[c] > warmup_refs ? remaining[c] - warmup_refs : remaining[c];
  // Per-core (clock, instructions) snapshot at the end of warm-up.
  std::vector<double> warm_clock(cores, 0);
  std::vector<std::uint64_t> warm_instr(cores, 0);

  // Interleave cores in local-clock order so shared-resource contention
  // (L3, DRAM banks/buses) is seen in a causally sensible sequence.
  while (true) {
    unsigned next_core = cores;
    double min_clock = 0;
    for (unsigned c = 0; c < cores; ++c) {
      if (remaining[c] == 0) continue;
      if (next_core == cores || core_models[c].clock() < min_clock) {
        next_core = c;
        min_clock = core_models[c].clock();
      }
    }
    if (next_core == cores) break;  // all streams exhausted

    CoreModel& core = core_models[next_core];
    if (remaining[next_core] == measured_start[next_core]) {
      warm_clock[next_core] = core.clock();
      warm_instr[next_core] = core.instructions();
    }
    --remaining[next_core];

    const MemRef ref = next(next_core);
    core.advance_compute(ref.gap);

    const AccessOutcome outcome =
        hierarchy_.access(next_core, ref.addr, ref.is_write);
    const double now = core.clock();

    for (const std::uint64_t wb : outcome.writebacks)
      handle_writeback(now, wb);

    if (outcome.served_by == ServedBy::kMemory) {
      const auto cycle = static_cast<std::uint64_t>(now);
      // Every miss — load or store (write-allocate) — fetches the line
      // through the verified-read path.
      const std::uint64_t line_addr = ref.addr & ~63ULL;
      const std::uint64_t done_cycle =
          engine_ ? engine_->read_block(cycle, line_addr)
                  : dram_.access(cycle, line_addr, false);
      const double completion =
          static_cast<double>(done_cycle) + outcome.hit_latency;
      // Store misses retire into the write buffer; only loads can stall
      // the pipeline.
      if (ref.is_write)
        core.fast_access(0);
      else
        core.memory_access(completion, ref.dependent);
    } else {
      // Cache hits: L1 fully pipelined; deeper hits expose a fraction of
      // their latency only to dependent consumers.
      double exposed = 0;
      if (outcome.served_by != ServedBy::kL1 && ref.dependent && !ref.is_write)
        exposed = outcome.hit_latency;
      core.fast_access(exposed);
    }
  }

  // Drain: let outstanding misses land, flush dirty lines to memory.
  double end_clock = 0;
  for (CoreModel& core : core_models) {
    core.drain();
    end_clock = std::max(end_clock, core.clock());
  }
  for (const std::uint64_t wb : hierarchy_.flush_all())
    handle_writeback(end_clock, wb);
  if (engine_) engine_->flush_metadata(static_cast<std::uint64_t>(end_clock));

  SimResult result;
  result.cycles = static_cast<std::uint64_t>(std::ceil(end_clock));
  double warm_end = 0;
  std::uint64_t measured_instructions = 0;
  for (unsigned c = 0; c < cores; ++c) {
    result.instructions += core_models[c].instructions();
    measured_instructions += core_models[c].instructions() - warm_instr[c];
    warm_end = std::max(warm_end, warm_clock[c]);
  }
  const double measured_cycles = end_clock - warm_end;
  result.ipc = measured_cycles > 0
                   ? static_cast<double>(measured_instructions) /
                         measured_cycles
                   : 0;
  result.reencryptions =
      stats_.counter_value("engine.ctr_event.reencrypt");
  result.dram_reads = stats_.counter_value("dram.reads");
  result.dram_writes = stats_.counter_value("dram.writes");
  return result;
}

}  // namespace secmem
