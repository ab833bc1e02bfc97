#include "cache/cache.h"

#include <new>
#include <stdexcept>
#include <string>

#include "common/bitops.h"

namespace secmem {
namespace {

/// Sets of a valid geometry; throws std::invalid_argument otherwise.
std::size_t checked_sets(const CacheConfig& config) {
  const std::size_t set_bytes = config.line_bytes * config.ways;
  if (!is_pow2(config.line_bytes) || set_bytes == 0 ||
      config.size_bytes < set_bytes || config.size_bytes % set_bytes != 0) {
    throw std::invalid_argument(
        "SetAssocCache: " + std::to_string(config.size_bytes) +
        " bytes is not a whole number (at least 1) of " +
        std::to_string(config.ways) + "-way sets of " +
        std::to_string(config.line_bytes) +
        "-byte lines (line size must be a power of two)");
  }
  return config.size_bytes / set_bytes;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& config)
    : line_shift_(log2_pow2(config.line_bytes)),
      sets_(checked_sets(config)),
      ways_(config.ways),
      pow2_sets_(is_pow2(sets_)),
      set_shift_(pow2_sets_ ? log2_pow2(sets_) : 0) {
  const std::size_t n = sets_ * ways_;
  // Zeroed: every tag word 0 (empty), every stamp 0, every line clean.
  block_.reset(static_cast<std::uint64_t*>(
      std::calloc(1, n * (2 * sizeof(std::uint64_t) + 1))));
  if (!block_) throw std::bad_alloc();
  keys_ = block_.get();
  stamps_ = keys_ + n;
  dirty_ = reinterpret_cast<std::uint8_t*>(stamps_ + n);
}

SetAssocCache::Slot SetAssocCache::slot_of(
    std::uint64_t addr) const noexcept {
  const std::uint64_t line = addr >> line_shift_;
  if (pow2_sets_)
    return {static_cast<std::size_t>(line & (sets_ - 1)),
            (line >> set_shift_) + 1};
  // Any other set count (the 10 MB L3 has 10240 sets): one division.
  const std::uint64_t q = line / sets_;
  return {static_cast<std::size_t>(line - q * sets_), q + 1};
}

std::uint64_t SetAssocCache::address_of(std::uint64_t key,
                                        std::size_t set) const noexcept {
  return ((key - 1) * sets_ + set) << line_shift_;
}

std::size_t SetAssocCache::find(std::uint64_t addr) const noexcept {
  const Slot s = slot_of(addr);
  const std::size_t base = s.set * ways_;
  for (unsigned w = 0; w < ways_; ++w)
    if (keys_[base + w] == s.key) return base + w;
  return kAbsent;
}

bool SetAssocCache::touch(std::uint64_t addr, bool dirty) noexcept {
  const std::size_t i = find(addr);
  if (i == kAbsent) return false;
  stamps_[i] = next_lru_++;
  dirty_[i] |= static_cast<std::uint8_t>(dirty);
  return true;
}

std::optional<Eviction> SetAssocCache::fill(std::uint64_t addr, bool dirty) {
  assert(!contains(addr));
  const Slot s = slot_of(addr);
  const std::size_t base = s.set * ways_;
  // The first empty way, else the least recently used one.
  std::size_t victim = base;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (keys_[i] == 0) {
      victim = i;
      break;
    }
    if (stamps_[i] < stamps_[victim]) victim = i;
  }

  std::optional<Eviction> evicted;
  if (keys_[victim] != 0)
    evicted = Eviction{address_of(keys_[victim], s.set), dirty_[victim] != 0};
  keys_[victim] = s.key;
  dirty_[victim] = dirty;
  stamps_[victim] = next_lru_++;
  return evicted;
}

std::optional<Eviction> SetAssocCache::invalidate(std::uint64_t addr) noexcept {
  const std::size_t i = find(addr);
  if (i == kAbsent) return std::nullopt;
  keys_[i] = 0;
  return Eviction{line_address(addr), dirty_[i] != 0};
}

std::vector<Eviction> SetAssocCache::flush() {
  std::vector<Eviction> dirty_lines;
  for (std::size_t set = 0; set < sets_; ++set) {
    for (std::size_t i = set * ways_; i < (set + 1) * ways_; ++i) {
      if (keys_[i] == 0) continue;
      if (dirty_[i])
        dirty_lines.push_back(Eviction{address_of(keys_[i], set), true});
      keys_[i] = 0;
    }
  }
  return dirty_lines;
}

std::size_t SetAssocCache::occupied_lines() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sets_ * ways_; ++i) n += keys_[i] != 0;
  return n;
}

}  // namespace secmem
