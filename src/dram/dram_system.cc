#include "dram/dram_system.h"

namespace secmem {

DramCoord map_address(const DramOrg& org, std::uint64_t addr,
                      AddressMapping mapping) noexcept {
  if (mapping == AddressMapping::kBlockInterleave) {
    // Fine-grained: [row | rank | bank | channel | block].
    std::uint64_t block = addr / 64;
    const unsigned channel = static_cast<unsigned>(block % org.channels);
    block /= org.channels;
    const unsigned bank = static_cast<unsigned>(block % org.banks_per_rank);
    block /= org.banks_per_rank;
    const unsigned rank =
        static_cast<unsigned>(block % org.ranks_per_channel);
    block /= org.ranks_per_channel;
    const std::uint64_t row = block / (org.row_bytes / 64);
    return {channel, rank, bank, row};
  }
  // Channel interleave at 1KB granularity with row continuity: blocks of
  // one 1KB segment share a (channel, bank, row), consecutive segments
  // rotate channels then banks. Streams thus get row-buffer hits within
  // segments AND channel/bank parallelism across them — the standard
  // performance mapping DRAMSim2-class controllers use.
  constexpr std::uint64_t kSegBlocks = 16;  // 1KB / 64B
  const std::uint64_t block = addr / 64;
  const std::uint64_t seg = block / kSegBlocks;
  const unsigned channel = static_cast<unsigned>(seg % org.channels);
  const std::uint64_t s = seg / org.channels;
  const unsigned bank = static_cast<unsigned>(s % org.banks_per_rank);
  const std::uint64_t r2 = s / org.banks_per_rank;
  const unsigned rank = static_cast<unsigned>(r2 % org.ranks_per_channel);
  const std::uint64_t r3 = r2 / org.ranks_per_channel;
  const std::uint64_t segs_per_row = org.row_bytes / (kSegBlocks * 64);
  const std::uint64_t row = r3 / (segs_per_row ? segs_per_row : 1);
  return {channel, rank, bank, row};
}

DramSystem::DramSystem(const DramConfig& config, StatRegistry& stats)
    : config_(config),
      reads_(stats.counter("dram.reads")),
      writes_(stats.counter("dram.writes")),
      latency_(stats.scalar("dram.latency")) {
  channels_.reserve(config.org.channels);
  for (unsigned c = 0; c < config.org.channels; ++c)
    channels_.emplace_back(config, c, stats);
}

std::uint64_t DramSystem::access(std::uint64_t now, std::uint64_t addr,
                                 bool is_write) {
  const DramCoord coord = map_address(config_.org, addr, config_.mapping);
  const auto completion = channels_[coord.channel].access(
      now, coord.rank, coord.bank, coord.row, is_write);
  (is_write ? writes_ : reads_).inc();
  latency_.sample(static_cast<double>(completion.done - now));
  return completion.done;
}

std::uint64_t DramSystem::idle_read_latency() const noexcept {
  const DramTiming& t = config_.timing;
  return t.tRCD + t.tCL + t.tBurst;
}

}  // namespace secmem
