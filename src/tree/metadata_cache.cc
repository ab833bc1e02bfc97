#include "tree/metadata_cache.h"

namespace secmem {

MetadataCache::Access MetadataCache::access(std::uint64_t addr, bool dirty) {
  Access result;
  if (cache_.touch(addr, dirty)) {
    result.hit = true;
    hits_.inc();
    return result;
  }
  result.hit = false;
  misses_.inc();
  if (auto victim = cache_.fill(addr, dirty); victim && victim->dirty)
    result.writebacks.push_back(victim->line_addr);
  return result;
}

std::vector<std::uint64_t> MetadataCache::flush() {
  std::vector<std::uint64_t> writebacks;
  for (const Eviction& ev : cache_.flush())
    if (ev.dirty) writebacks.push_back(ev.line_addr);
  return writebacks;
}

}  // namespace secmem
