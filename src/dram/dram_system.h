// Multi-channel DRAM system front end.
//
// The memory controller used by the simulator: maps physical addresses to
// (channel, rank, bank, row), schedules block accesses against the bank
// and bus state, and reports completion cycles. With `ecc_lane` enabled
// (x72 DIMMs), a block's 8 ECC/MAC bytes arrive in the same burst as the
// data — `access` covers both; with it disabled, callers needing metadata
// must issue explicit extra accesses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "dram/channel.h"
#include "dram/dram_types.h"

namespace secmem {

class DramSystem {
 public:
  DramSystem(const DramConfig& config, StatRegistry& stats);

  /// Schedule a 64-byte block access at cycle `now`; returns the cycle the
  /// data is available (read) or accepted (write).
  std::uint64_t access(std::uint64_t now, std::uint64_t addr, bool is_write);

  /// Latency of an unloaded row-miss read — useful as a baseline figure.
  std::uint64_t idle_read_latency() const noexcept;

  const DramConfig& config() const noexcept { return config_; }

 private:
  DramConfig config_;
  std::vector<DramChannel> channels_;
  // Cached registry entries (stable references, see StatRegistry): every
  // simulated DRAM transaction passes here, so the name lookups happen
  // once at construction, as in DramChannel.
  StatCounter& reads_;
  StatCounter& writes_;
  StatScalar& latency_;
};

}  // namespace secmem
