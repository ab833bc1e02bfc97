#include "cache/hierarchy.h"

namespace secmem {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config,
                               StatRegistry& stats)
    : config_(config),
      l3_(config.l3),
      l1_stats_{stats.counter("cache.l1.hits"),
                stats.counter("cache.l1.misses")},
      l2_stats_{stats.counter("cache.l2.hits"),
                stats.counter("cache.l2.misses")},
      l3_stats_{stats.counter("cache.l3.hits"),
                stats.counter("cache.l3.misses")} {
  l1_.reserve(config.cores);
  l2_.reserve(config.cores);
  for (unsigned c = 0; c < config.cores; ++c) {
    l1_.emplace_back(config.l1);
    l2_.emplace_back(config.l2);
  }
}

template <class Writebacks>
void CacheHierarchy::fill_l3(std::uint64_t line, bool dirty,
                             Writebacks& writebacks) {
  if (l3_.touch(line, dirty)) return;
  if (auto victim = l3_.fill(line, dirty); victim && victim->dirty)
    writebacks.push_back(victim->line_addr);
}

template <class Writebacks>
void CacheHierarchy::fill_l2(unsigned core, std::uint64_t line, bool dirty,
                             Writebacks& writebacks) {
  SetAssocCache& l2 = l2_[core];
  if (l2.touch(line, dirty)) return;
  if (auto victim = l2.fill(line, dirty); victim && victim->dirty)
    fill_l3(victim->line_addr, /*dirty=*/true, writebacks);
}

AccessOutcome CacheHierarchy::access(unsigned core, std::uint64_t addr,
                                     bool is_write) {
  AccessOutcome outcome;
  SetAssocCache& l1 = l1_[core];
  SetAssocCache& l2 = l2_[core];
  const std::uint64_t line = l1.line_address(addr);

  if (l1.touch(line, is_write)) {
    outcome.served_by = ServedBy::kL1;
    outcome.hit_latency = config_.l1_latency;
    l1_stats_.hits.inc();
    return outcome;
  }
  l1_stats_.misses.inc();

  // Allocate into L1 regardless of where the line is found below.
  auto allocate_l1 = [&](bool dirty) {
    if (auto victim = l1.fill(line, dirty); victim && victim->dirty)
      fill_l2(core, victim->line_addr, /*dirty=*/true, outcome.writebacks);
  };

  if (const auto removed = l2.invalidate(line)) {
    // Line moves up to L1; its dirtiness migrates with it.
    allocate_l1(is_write || removed->dirty);
    outcome.served_by = ServedBy::kL2;
    outcome.hit_latency = config_.l2_latency;
    l2_stats_.hits.inc();
    return outcome;
  }
  l2_stats_.misses.inc();

  if (l3_.lookup(line)) {
    allocate_l1(is_write);
    outcome.served_by = ServedBy::kL3;
    outcome.hit_latency = config_.l3_latency;
    l3_stats_.hits.inc();
    return outcome;
  }
  l3_stats_.misses.inc();

  // Miss everywhere: line comes from DRAM. Fill L3 (clean copy) and L1.
  fill_l3(line, /*dirty=*/false, outcome.writebacks);
  allocate_l1(is_write);
  outcome.served_by = ServedBy::kMemory;
  outcome.hit_latency = config_.l3_latency;  // time spent probing the chain
  return outcome;
}

std::vector<std::uint64_t> CacheHierarchy::flush_all() {
  std::vector<std::uint64_t> writebacks;
  for (unsigned c = 0; c < config_.cores; ++c) {
    for (const Eviction& ev : l1_[c].flush())
      if (ev.dirty) fill_l2(c, ev.line_addr, true, writebacks);
    for (const Eviction& ev : l2_[c].flush())
      if (ev.dirty) fill_l3(ev.line_addr, true, writebacks);
  }
  for (const Eviction& ev : l3_.flush())
    if (ev.dirty) writebacks.push_back(ev.line_addr);
  return writebacks;
}

}  // namespace secmem
