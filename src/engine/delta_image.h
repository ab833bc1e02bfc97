// secmem::delta — the engine-independent codec behind incremental
// snapshots (save_delta / restore_delta).
//
// A secure-memory image is four flat sections — ciphertext blocks, ECC
// lanes, separate MACs (when the placement keeps them out of the lanes)
// and serialized counter lines. This module carves those sections into
// fixed *granules* (the engine picks lcm(blocks_per_group,
// blocks_per_storage_line) blocks, so a granule always holds whole
// re-encryption groups and whole counter lines) and expresses one image
// as a VCDIFF-style COPY/ADD command stream against another:
//
//   COPY dst n src   — granules [dst, dst+n) are unchanged; src must
//                      equal dst, and the command carries no payload
//   ADD  dst n data  — granules [dst, dst+n) ship verbatim (ciphertext,
//                      lanes, MACs little-endian, counter lines — in
//                      that order, per granule)
//
// Only self-COPYs exist. Counter mode binds every ciphertext block (and
// its MAC) to its (address, counter) nonce, so a granule of one valid
// image never reappears at another granule of a later one: content
// matching across positions has nothing to find. The wire keeps the src
// field; parse() rejects any COPY whose src differs from dst.
//
// encode_from_dirty is the one encoder: the engine's dirty-granule
// bitmap says exactly which granules changed since the base snapshot;
// clean runs become COPYs, dirty runs become ADDs. O(dirty) payload.
//
// Streams apply IN PLACE over the base, and with no command reading
// another's destination, any order is correct. Decoders must parse()
// first: it bounds-checks every command and enforces exact coverage
// (each granule written exactly once), so a validated stream always
// reconstructs a complete image. Authentication of the stream
// (command-section MAC, base seal) is the engine's job — this module
// moves bytes only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/ct.h"
#include "crypto/ctr_keystream.h"  // DataBlock
#include "ecc/secded72.h"          // EccLane

namespace secmem::delta {

/// Section shape shared by encoder and decoder. Both sides derive it
/// from the same engine geometry, and the image header pins it, so a
/// mismatch is caught before any command is parsed.
struct Geometry {
  std::uint64_t num_blocks = 0;
  std::uint64_t blocks_per_line = 0;  ///< blocks per 64-byte counter line
  std::uint64_t num_lines = 0;        ///< serialized counter lines
  std::uint64_t granule_blocks = 0;   ///< multiple of blocks_per_line
  bool separate_macs = false;         ///< MAC section present in payloads

  std::uint64_t num_granules() const noexcept {
    return (num_blocks + granule_blocks - 1) / granule_blocks;
  }
  std::uint64_t lines_per_granule() const noexcept {
    return granule_blocks / blocks_per_line;
  }
  std::uint64_t block_start(std::uint64_t g) const noexcept {
    return g * granule_blocks;
  }
  std::uint64_t blocks_in(std::uint64_t g) const noexcept {
    const std::uint64_t start = block_start(g);
    return start < num_blocks
               ? (num_blocks - start < granule_blocks ? num_blocks - start
                                                      : granule_blocks)
               : 0;
  }
  std::uint64_t line_start(std::uint64_t g) const noexcept {
    return g * lines_per_granule();
  }
  std::uint64_t lines_in(std::uint64_t g) const noexcept {
    const std::uint64_t start = line_start(g);
    const std::uint64_t per = lines_per_granule();
    return start < num_lines
               ? (num_lines - start < per ? num_lines - start : per)
               : 0;
  }
  /// ADD payload bytes for one granule: ciphertext + lanes [+ MACs] +
  /// counter lines.
  std::uint64_t payload_bytes(std::uint64_t g) const noexcept;

  std::uint64_t dirty_words() const noexcept {
    return (num_granules() + 63) / 64;
  }
};

/// The four image sections, read-only (encoder view).
struct ConstSections {
  std::span<const DataBlock> ciphertext;
  std::span<const EccLane> lanes;
  std::span<const std::uint64_t> macs;     ///< empty unless separate_macs
  std::span<const std::uint8_t> counters;  ///< num_lines * 64 bytes
};

/// The four image sections, mutable (in-place apply target).
struct MutSections {
  std::span<DataBlock> ciphertext;
  std::span<EccLane> lanes;
  std::span<std::uint64_t> macs;
  std::span<std::uint8_t> counters;

  ConstSections as_const() const noexcept {
    return {ciphertext, lanes, macs, counters};
  }
};

/// One parsed command. Wire form (all fields little-endian u64 after a
/// 1-byte opcode): COPY = op,dst,n,src (src == dst); ADD = op,dst,n,payload.
struct Command {
  enum : std::uint8_t { kCopy = 1, kAdd = 2 };
  std::uint8_t op = kCopy;
  std::uint64_t dst = 0;
  std::uint64_t n = 0;
  std::size_t payload_off = 0;  ///< kAdd only: offset into the stream
};

/// Encode target state against the in-memory base using the dirty
/// bitmap (bit g set = granule g changed since the base snapshot).
/// Appends the command stream to `out`; returns the dirty-granule count
/// (== granules shipped as ADD payload).
std::uint64_t encode_from_dirty(const Geometry& geo,
                                const ConstSections& target,
                                std::span<const std::uint64_t> dirty_words,
                                std::vector<std::uint8_t>& out);

/// Longest command stream parse() can accept for `geo`: every granule
/// under its own command, each the larger of a COPY and an ADD with its
/// payload. Bounds a claimed command length before any byte is read.
std::uint64_t max_stream_bytes(const Geometry& geo) noexcept;

/// Validate a command stream: opcode, bounds, payload sizes, COPYs that
/// stay in place (src == dst), and exact coverage of all granules.
/// False leaves `cmds` unspecified and means the stream must not be
/// applied.
[[nodiscard]] bool parse(const Geometry& geo,
                         std::span<const std::uint8_t> cmd_bytes,
                         std::vector<Command>& cmds);

/// Apply a parse()-validated stream in place over the base sections.
/// COPYs are no-ops; ADDs splat payload bytes (MACs decoded
/// little-endian).
void apply(const Geometry& geo, std::span<const Command> cmds,
           std::span<const std::uint8_t> cmd_bytes,
           const MutSections& sections);

/// Engine image framing: every SecureMemory image opens with one of
/// these magics, then little-endian u64 header fields. The sharded
/// container routes each shard's slice on the same magics.
inline constexpr char kImageMagic[8] = {'S', 'E', 'C', 'M', 'E', 'M', '0', '1'};
inline constexpr char kDeltaMagic[8] = {'S', 'E', 'C', 'M', 'D', 'L', 'T', '1'};

/// True iff the 8 bytes at `bytes` are `magic`. Magics are public
/// framing, but they compare through ct_equal like every other byte
/// compare in the engine, so no engine file needs a ct-compare
/// exemption.
[[nodiscard]] inline bool is_magic(const void* bytes,
                                   const char (&magic)[8]) noexcept {
  return ct_equal(bytes, magic, sizeof(magic));
}

void write_u64(std::ostream& out, std::uint64_t v);
std::uint64_t read_u64(std::istream& in);

}  // namespace secmem::delta
