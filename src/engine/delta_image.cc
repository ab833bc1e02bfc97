#include "engine/delta_image.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/bitops.h"

namespace secmem::delta {
namespace {

constexpr std::size_t kCounterLineBytes = 64;
constexpr std::size_t kCopyWire = 1 + 3 * 8;  // op, dst, n, src
constexpr std::size_t kAddWire = 1 + 2 * 8;   // op, dst, n (+ payload)

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t le[8];
  store_le64(le, v);
  out.insert(out.end(), le, le + 8);
}

/// A self-COPY: granules [dst, dst+n) stay as the base has them.
void append_copy(std::vector<std::uint8_t>& out, std::uint64_t dst,
                 std::uint64_t n) {
  out.push_back(Command::kCopy);
  append_u64(out, dst);
  append_u64(out, n);
  append_u64(out, dst);  // src: always dst
}

/// Append granule g's payload: ciphertext, lanes, MACs (LE), counters.
void append_payload(const Geometry& geo, const ConstSections& s,
                    std::uint64_t g, std::vector<std::uint8_t>& out) {
  const std::uint64_t b0 = geo.block_start(g);
  const std::uint64_t nb = geo.blocks_in(g);
  const auto* ct = reinterpret_cast<const std::uint8_t*>(
      s.ciphertext.data() + b0);
  out.insert(out.end(), ct, ct + nb * sizeof(DataBlock));
  const auto* ln = reinterpret_cast<const std::uint8_t*>(s.lanes.data() + b0);
  out.insert(out.end(), ln, ln + nb * sizeof(EccLane));
  if (geo.separate_macs)
    for (std::uint64_t b = b0; b < b0 + nb; ++b) append_u64(out, s.macs[b]);
  const std::uint64_t l0 = geo.line_start(g);
  const std::uint64_t nl = geo.lines_in(g);
  const std::uint8_t* lines = s.counters.data() + l0 * kCounterLineBytes;
  out.insert(out.end(), lines, lines + nl * kCounterLineBytes);
}

void append_add(const Geometry& geo, const ConstSections& s,
                std::uint64_t dst, std::uint64_t n,
                std::vector<std::uint8_t>& out) {
  out.push_back(Command::kAdd);
  append_u64(out, dst);
  append_u64(out, n);
  for (std::uint64_t g = dst; g < dst + n; ++g) append_payload(geo, s, g, out);
}

}  // namespace

std::uint64_t Geometry::payload_bytes(std::uint64_t g) const noexcept {
  const std::uint64_t nb = blocks_in(g);
  std::uint64_t bytes = nb * (sizeof(DataBlock) + sizeof(EccLane));
  if (separate_macs) bytes += nb * sizeof(std::uint64_t);
  return bytes + lines_in(g) * kCounterLineBytes;
}

std::uint64_t max_stream_bytes(const Geometry& geo) noexcept {
  std::uint64_t bytes = 0;
  for (std::uint64_t g = 0; g < geo.num_granules(); ++g)
    bytes += std::max<std::uint64_t>(kCopyWire,
                                     kAddWire + geo.payload_bytes(g));
  return bytes;
}

std::uint64_t encode_from_dirty(const Geometry& geo,
                                const ConstSections& target,
                                std::span<const std::uint64_t> dirty_words,
                                std::vector<std::uint8_t>& out) {
  const std::uint64_t granules = geo.num_granules();
  std::uint64_t dirty_count = 0;
  std::uint64_t run_start = 0;
  bool run_dirty = false;
  const auto flush_run = [&](std::uint64_t end) {
    if (end == run_start) return;
    if (run_dirty)
      append_add(geo, target, run_start, end - run_start, out);
    else
      append_copy(out, run_start, end - run_start);
  };
  for (std::uint64_t g = 0; g < granules; ++g) {
    const bool dirty =
        (dirty_words[g / 64] >> (g % 64)) & std::uint64_t{1};
    dirty_count += dirty;
    if (g == 0) {
      run_dirty = dirty;
    } else if (dirty != run_dirty) {
      flush_run(g);
      run_start = g;
      run_dirty = dirty;
    }
  }
  flush_run(granules);
  return dirty_count;
}

bool parse(const Geometry& geo, std::span<const std::uint8_t> cmd_bytes,
           std::vector<Command>& cmds) {
  cmds.clear();
  const std::uint64_t granules = geo.num_granules();
  std::vector<bool> covered(granules, false);
  std::size_t off = 0;
  std::uint64_t covered_count = 0;
  while (off < cmd_bytes.size()) {
    Command cmd;
    cmd.op = cmd_bytes[off];
    if (cmd.op == Command::kCopy) {
      if (cmd_bytes.size() - off < kCopyWire) return false;
      cmd.dst = load_le64(cmd_bytes.data() + off + 1);
      cmd.n = load_le64(cmd_bytes.data() + off + 9);
      const std::uint64_t src = load_le64(cmd_bytes.data() + off + 17);
      off += kCopyWire;
      // A COPY only ever keeps granules in place: under counter mode a
      // ciphertext granule is bound to its address, so no valid image
      // holds another granule's bytes.
      if (cmd.n == 0 || cmd.dst >= granules || cmd.n > granules - cmd.dst ||
          src != cmd.dst)
        return false;
    } else if (cmd.op == Command::kAdd) {
      if (cmd_bytes.size() - off < kAddWire) return false;
      cmd.dst = load_le64(cmd_bytes.data() + off + 1);
      cmd.n = load_le64(cmd_bytes.data() + off + 9);
      off += kAddWire;
      if (cmd.n == 0 || cmd.dst >= granules || cmd.n > granules - cmd.dst)
        return false;
      cmd.payload_off = off;
      for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
        const std::uint64_t need = geo.payload_bytes(g);
        if (cmd_bytes.size() - off < need) return false;
        off += need;
      }
    } else {
      return false;
    }
    for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
      if (covered[g]) return false;  // double write — ordering undefined
      covered[g] = true;
      ++covered_count;
    }
    cmds.push_back(cmd);
  }
  return covered_count == granules;  // every granule defined exactly once
}

void apply(const Geometry& geo, std::span<const Command> cmds,
           std::span<const std::uint8_t> cmd_bytes,
           const MutSections& s) {
  for (const Command& cmd : cmds) {
    if (cmd.op == Command::kCopy) continue;  // granules stay in place
    std::size_t off = cmd.payload_off;
    for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
      const std::uint64_t b0 = geo.block_start(g);
      const std::uint64_t nb = geo.blocks_in(g);
      std::memcpy(s.ciphertext.data() + b0, cmd_bytes.data() + off,
                  nb * sizeof(DataBlock));
      off += nb * sizeof(DataBlock);
      std::memcpy(s.lanes.data() + b0, cmd_bytes.data() + off,
                  nb * sizeof(EccLane));
      off += nb * sizeof(EccLane);
      if (geo.separate_macs)
        for (std::uint64_t b = b0; b < b0 + nb; ++b, off += 8)
          s.macs[b] = load_le64(cmd_bytes.data() + off);
      const std::uint64_t nl = geo.lines_in(g);
      std::memcpy(s.counters.data() + geo.line_start(g) * kCounterLineBytes,
                  cmd_bytes.data() + off, nl * kCounterLineBytes);
      off += nl * kCounterLineBytes;
    }
  }
}

void write_u64(std::ostream& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_le64(buf, v);
  out.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint8_t buf[8] = {};
  in.read(reinterpret_cast<char*>(buf), 8);
  return load_le64(buf);
}

}  // namespace secmem::delta
