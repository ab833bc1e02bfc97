// Byte-range walkers behind every engine's read_bytes/write_bytes: the
// 64-byte chunking and the all-or-nothing edge pre-verify, written once.
// Each engine passes its own block read and write (keeping its locking)
// and traces the returned verdict itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "engine/secure_memory_like.h"

namespace secmem {

/// A byte-range outcome: the first failed verdict and the block that
/// produced it, or the worst verdict seen and the range's first block.
struct RangeVerdict {
  Status status = Status::kOk;
  std::uint64_t block = 0;
};

/// Verified read of [addr, addr + out.size()) into `out`, stopping at
/// the first failed verdict; `read(block)` yields the block's ReadResult.
template <class Read>
RangeVerdict read_range(std::uint64_t addr, std::span<std::uint8_t> out,
                        Read&& read) {
  RangeVerdict verdict{Status::kOk, addr / kBlockBytes};
  for (std::size_t done = 0; done < out.size();) {
    const std::uint64_t block = (addr + done) / kBlockBytes;
    const std::size_t offset = (addr + done) % kBlockBytes;
    const std::size_t size =
        std::min(kBlockBytes - offset, out.size() - done);
    const ReadResult r = read(block);
    if (!status_ok(r.status)) return RangeVerdict{r.status, block};
    verdict.status = worse(verdict.status, r.status);
    std::memcpy(out.data() + done, r.data.data() + offset, size);
    done += size;
  }
  return verdict;
}

/// All-or-nothing write of the non-empty `bytes` at `addr`. Only the
/// partial edge blocks need their old contents, so only their reads can
/// fail: `read(block)` pre-verifies them before any `write(block,
/// plaintext)`, and a failed verdict means nothing was written.
template <class Read, class Write>
RangeVerdict write_range(std::uint64_t addr,
                         std::span<const std::uint8_t> bytes, Read&& read,
                         Write&& write) {
  const std::uint64_t first = addr / kBlockBytes;
  const std::uint64_t last = (addr + bytes.size() - 1) / kBlockBytes;
  RangeVerdict verdict{Status::kOk, first};
  DataBlock head{};
  DataBlock tail{};
  const auto verify_edge = [&](std::uint64_t block, DataBlock& plain) {
    const ReadResult r = read(block);
    plain = r.data;
    verdict.status = worse(verdict.status, r.status);
    if (!status_ok(r.status)) verdict.block = block;
    return status_ok(r.status);
  };
  if ((addr % kBlockBytes != 0 || bytes.size() < kBlockBytes) &&
      !verify_edge(first, head))
    return verdict;
  if ((addr + bytes.size()) % kBlockBytes != 0 && last != first &&
      !verify_edge(last, tail))
    return verdict;

  for (std::size_t done = 0; done < bytes.size();) {
    const std::uint64_t block = (addr + done) / kBlockBytes;
    const std::size_t offset = (addr + done) % kBlockBytes;
    const std::size_t size =
        std::min(kBlockBytes - offset, bytes.size() - done);
    // Edge blocks merge into the pre-verified plaintext: group
    // re-encryptions triggered by earlier writes change ciphertexts,
    // never plaintexts, so the copies stay valid.
    DataBlock plain{};
    if (size != kBlockBytes) plain = block == first ? head : tail;
    std::memcpy(plain.data() + offset, bytes.data() + done, size);
    verdict.status = worse(verdict.status, write(block, plain));
    done += size;
  }
  return verdict;
}

}  // namespace secmem
