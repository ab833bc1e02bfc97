#include "reference_cache.h"

namespace secmem {

ReferenceCache::ReferenceCache(const CacheConfig& config)
    : line_bytes_(config.line_bytes),
      sets_(config.size_bytes / (config.line_bytes * config.ways)),
      ways_(config.ways),
      lines_(sets_ * ways_) {}

ReferenceCache::Line* ReferenceCache::find(std::uint64_t addr) {
  const std::uint64_t line = addr / line_bytes_;
  const std::size_t base = (line % sets_) * ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    Line& l = lines_[base + w];
    if (l.valid && l.tag == line / sets_) return &l;
  }
  return nullptr;
}

bool ReferenceCache::lookup(std::uint64_t addr) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  l->lru = next_lru_++;
  return true;
}

bool ReferenceCache::touch(std::uint64_t addr, bool dirty) {
  if (!lookup(addr)) return false;
  if (dirty) mark_dirty(addr);
  return true;
}

bool ReferenceCache::mark_dirty(std::uint64_t addr) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  l->dirty = true;
  l->lru = next_lru_++;
  return true;
}

bool ReferenceCache::contains(std::uint64_t addr) const {
  return const_cast<ReferenceCache*>(this)->find(addr) != nullptr;
}

std::optional<Eviction> ReferenceCache::fill(std::uint64_t addr, bool dirty) {
  const std::uint64_t line = addr / line_bytes_;
  const std::size_t set = line % sets_;
  Line* victim = &lines_[set * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    Line& l = lines_[set * ways_ + w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.lru < victim->lru) victim = &l;
  }
  std::optional<Eviction> evicted;
  if (victim->valid)
    evicted = Eviction{(victim->tag * sets_ + set) * line_bytes_,
                       victim->dirty};
  *victim = Line{line / sets_, next_lru_++, true, dirty};
  return evicted;
}

std::optional<Eviction> ReferenceCache::invalidate(std::uint64_t addr) {
  Line* l = find(addr);
  if (l == nullptr) return std::nullopt;
  l->valid = false;
  return Eviction{addr / line_bytes_ * line_bytes_, l->dirty};
}

std::vector<Eviction> ReferenceCache::flush() {
  std::vector<Eviction> dirty_lines;
  for (std::size_t set = 0; set < sets_; ++set)
    for (unsigned w = 0; w < ways_; ++w) {
      Line& l = lines_[set * ways_ + w];
      if (l.valid && l.dirty)
        dirty_lines.push_back(
            Eviction{(l.tag * sets_ + set) * line_bytes_, true});
      l.valid = false;
    }
  return dirty_lines;
}

std::size_t ReferenceCache::occupied_lines() const {
  std::size_t n = 0;
  for (const Line& l : lines_) n += l.valid;
  return n;
}

}  // namespace secmem
