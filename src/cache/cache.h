// Generic set-associative, write-back, LRU cache model.
//
// This is a *tag* cache: it tracks presence and dirtiness of lines, not
// their contents (functional data lives in the owning component). The same
// class models the L1/L2/L3 data caches of the simulated CPU and the 32KB
// 8-way counter/MAC metadata cache of the memory-encryption engine
// (paper Table 1).
//
// It sits on the timing model's per-reference path, so the ways are kept
// as parallel arrays in one zeroed allocation: a set scan reads only the
// tag words (tag + 1, 0 = empty), and the LRU stamps and dirty flags are
// touched only on a hit or a fill. A line indexes its set by modulo:
// a shift and a mask for power-of-two set counts, one division otherwise.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

namespace secmem {

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  unsigned ways = 8;
  std::size_t line_bytes = 64;
};

/// Result of a fill: the line that had to be evicted, if any.
struct Eviction {
  std::uint64_t line_addr;  ///< byte address of the evicted line
  bool dirty;               ///< true if it must be written back
};

/// Fixed-capacity list of line addresses, held inline so that a
/// per-access result allocates nothing. `N` is the most one access can
/// produce.
template <std::size_t N>
class LineList {
 public:
  void push_back(std::uint64_t addr) noexcept {
    assert(size_ < N);
    addrs_[size_++] = addr;
  }
  const std::uint64_t* begin() const noexcept { return addrs_.data(); }
  const std::uint64_t* end() const noexcept { return addrs_.data() + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t operator[](std::size_t i) const noexcept { return addrs_[i]; }

 private:
  std::array<std::uint64_t, N> addrs_;
  std::size_t size_ = 0;
};

class SetAssocCache {
 public:
  /// Any number of sets; the line size must be a power of two and the
  /// size a whole number of sets (std::invalid_argument otherwise).
  explicit SetAssocCache(const CacheConfig& config);

  /// True if the line containing `addr` is present; updates LRU on hit.
  bool lookup(std::uint64_t addr) noexcept { return touch(addr, false); }

  /// Like lookup(), and a hit also marks the line dirty when `dirty`.
  bool touch(std::uint64_t addr, bool dirty) noexcept;

  /// Probe without disturbing LRU state.
  bool contains(std::uint64_t addr) const noexcept {
    return find(addr) != kAbsent;
  }

  /// Insert the line containing `addr` (must not already be present —
  /// call lookup first). Returns the victim if a valid line was evicted.
  std::optional<Eviction> fill(std::uint64_t addr, bool dirty = false);

  /// Remove the line containing `addr` if present; reports its dirtiness.
  std::optional<Eviction> invalidate(std::uint64_t addr) noexcept;

  /// Drop every line; dirty victims are returned in unspecified order.
  std::vector<Eviction> flush();

  std::size_t line_bytes() const noexcept {
    return std::size_t{1} << line_shift_;
  }
  std::size_t num_sets() const noexcept { return sets_; }
  unsigned ways() const noexcept { return ways_; }
  std::size_t occupied_lines() const noexcept;

  std::uint64_t line_address(std::uint64_t addr) const noexcept {
    return addr & ~((std::uint64_t{1} << line_shift_) - 1);
  }

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Where the line containing `addr` lives: its set and the tag word
  /// (tag + 1) it is stored under.
  struct Slot {
    std::size_t set;
    std::uint64_t key;
  };
  Slot slot_of(std::uint64_t addr) const noexcept;
  /// Way index (set * ways + way) holding `addr`, or kAbsent.
  std::size_t find(std::uint64_t addr) const noexcept;
  std::uint64_t address_of(std::uint64_t key, std::size_t set) const noexcept;

  struct FreeDeleter {
    void operator()(void* p) const noexcept { std::free(p); }
  };

  unsigned line_shift_;
  std::size_t sets_;
  unsigned ways_;
  bool pow2_sets_;
  unsigned set_shift_;
  std::uint64_t next_lru_ = 1;
  // One calloc'd block: sets_ x ways_ tag words, then as many LRU stamps
  // (higher = more recently used), then as many dirty flags.
  std::unique_ptr<std::uint64_t, FreeDeleter> block_;
  std::uint64_t* keys_;
  std::uint64_t* stamps_;
  std::uint8_t* dirty_;
};

}  // namespace secmem
