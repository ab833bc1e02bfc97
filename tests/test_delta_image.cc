// secmem::delta codec unit tests: geometry math (tail granules), the
// dirty-bitmap encoder round-tripping through parse + in-place apply
// (fixed cases and random geometries), and the parser's rejection
// contract — truncation, bad opcodes, bounds, double cover, incomplete
// cover, and COPYs that do not stay in place — plus the stream-length
// bound max_stream_bytes. The engine-level sealing/authentication sits
// on top of this codec and is covered by test_delta_snapshot.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "engine/delta_image.h"

namespace secmem::delta {
namespace {

/// Owned backing storage for one image's four sections.
struct Image {
  std::vector<DataBlock> ciphertext;
  std::vector<EccLane> lanes;
  std::vector<std::uint64_t> macs;
  std::vector<std::uint8_t> counters;

  ConstSections view() const {
    return {ciphertext, lanes, macs, counters};
  }
  MutSections mut() {
    return {ciphertext, lanes, macs, counters};
  }
  bool operator==(const Image& o) const {
    return ciphertext == o.ciphertext && lanes == o.lanes &&
           macs == o.macs && counters == o.counters;
  }
};

Image make_image(const Geometry& geo, std::uint64_t seed) {
  Image img;
  img.ciphertext.resize(geo.num_blocks);
  img.lanes.resize(geo.num_blocks);
  if (geo.separate_macs) img.macs.resize(geo.num_blocks);
  img.counters.resize(geo.num_lines * 64);
  std::uint64_t state = seed;
  const auto next = [&state] { return splitmix64(state); };
  for (auto& b : img.ciphertext)
    for (auto& byte : b) byte = static_cast<std::uint8_t>(next());
  for (auto& l : img.lanes)
    for (auto& byte : l) byte = static_cast<std::uint8_t>(next());
  for (auto& m : img.macs) m = next();
  for (auto& c : img.counters) c = static_cast<std::uint8_t>(next());
  return img;
}

/// Copy granule `g` of `from` over the same granule of `to`.
void copy_granule(const Geometry& geo, const Image& from, std::uint64_t g,
                  Image& to) {
  const std::uint64_t b0 = geo.block_start(g);
  for (std::uint64_t b = b0; b < b0 + geo.blocks_in(g); ++b) {
    to.ciphertext[b] = from.ciphertext[b];
    to.lanes[b] = from.lanes[b];
    if (geo.separate_macs) to.macs[b] = from.macs[b];
  }
  std::memcpy(to.counters.data() + geo.line_start(g) * 64,
              from.counters.data() + geo.line_start(g) * 64,
              geo.lines_in(g) * 64);
}

/// Round-trip helper: parse an encoded stream, apply it over a copy of
/// base, expect the reconstruction to equal target bit for bit.
void expect_roundtrip(const Geometry& geo, const Image& base,
                      const Image& target,
                      const std::vector<std::uint8_t>& cmd) {
  std::vector<Command> cmds;
  ASSERT_TRUE(parse(geo, cmd, cmds));
  Image work = base;
  apply(geo, cmds, cmd, work.mut());
  EXPECT_TRUE(work == target);
}

/// 36 blocks of 4-block counter lines in 8-block granules: 5 granules,
/// the last a short tail (4 blocks, 1 line) — both section-slicing edge
/// cases in one shape.
Geometry tail_geometry(bool separate_macs) {
  Geometry geo;
  geo.num_blocks = 36;
  geo.blocks_per_line = 4;
  geo.num_lines = 9;
  geo.granule_blocks = 8;
  geo.separate_macs = separate_macs;
  return geo;
}

TEST(DeltaGeometry, TailGranuleMath) {
  const Geometry geo = tail_geometry(true);
  EXPECT_EQ(geo.num_granules(), 5u);
  EXPECT_EQ(geo.lines_per_granule(), 2u);
  EXPECT_EQ(geo.blocks_in(3), 8u);
  EXPECT_EQ(geo.blocks_in(4), 4u);  // tail
  EXPECT_EQ(geo.lines_in(3), 2u);
  EXPECT_EQ(geo.lines_in(4), 1u);  // tail
  EXPECT_EQ(geo.dirty_words(), 1u);
  // Full granule: 8 x (64 ciphertext + 8 lane + 8 mac) + 2 x 64 counters.
  EXPECT_EQ(geo.payload_bytes(0), 8 * (64 + 8 + 8) + 2 * 64u);
  EXPECT_EQ(geo.payload_bytes(4), 4 * (64 + 8 + 8) + 1 * 64u);
  Geometry no_macs = geo;
  no_macs.separate_macs = false;
  EXPECT_EQ(no_macs.payload_bytes(0), 8 * (64 + 8) + 2 * 64u);
}

TEST(DeltaDirtyEncode, CleanBitmapIsAllSelfCopy) {
  const Geometry geo = tail_geometry(false);
  const Image base = make_image(geo, 1);
  std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
  std::vector<std::uint8_t> cmd;
  EXPECT_EQ(encode_from_dirty(geo, base.view(), dirty, cmd), 0u);
  // One coalesced self-COPY covering everything: 25 wire bytes.
  EXPECT_EQ(cmd.size(), 25u);
  expect_roundtrip(geo, base, base, cmd);
}

TEST(DeltaDirtyEncode, DirtyGranulesShipAsAdds) {
  for (const bool macs : {false, true}) {
    const Geometry geo = tail_geometry(macs);
    const Image base = make_image(geo, 2);
    Image target = base;
    // Mutate granules 1 and 4 (the tail) — including a counter byte, so
    // every section's splice is exercised.
    target.ciphertext[geo.block_start(1)][0] ^= 0xA5;
    target.counters[geo.line_start(4) * 64] ^= 0x5A;
    if (macs) target.macs[geo.block_start(4)] ^= 1;
    std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
    dirty[0] = (1u << 1) | (1u << 4);
    std::vector<std::uint8_t> cmd;
    EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd), 2u);
    expect_roundtrip(geo, base, target, cmd);
  }
}

TEST(DeltaDirtyEncode, AllDirtyShipsWholeImage) {
  const Geometry geo = tail_geometry(true);
  const Image base = make_image(geo, 3);
  const Image target = make_image(geo, 4);
  std::vector<std::uint64_t> dirty(geo.dirty_words(), ~0ull);
  std::vector<std::uint8_t> cmd;
  EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd),
            geo.num_granules());
  expect_roundtrip(geo, base, target, cmd);
}

TEST(DeltaDirtyEncode, AlternatingDirtyGranulesFitTheStreamBound) {
  // Alternating dirty and clean granules give every granule its own
  // command — the longest stream the encoder emits.
  for (const bool macs : {false, true}) {
    const Geometry geo = tail_geometry(macs);
    const Image target = make_image(geo, 5);
    for (const std::uint64_t bits : {0b10101ull, 0b01010ull}) {
      std::vector<std::uint64_t> dirty(geo.dirty_words(), bits);
      std::vector<std::uint8_t> cmd;
      encode_from_dirty(geo, target.view(), dirty, cmd);
      EXPECT_LE(cmd.size(), max_stream_bytes(geo));
      std::vector<Command> cmds;
      ASSERT_TRUE(parse(geo, cmd, cmds));
      EXPECT_EQ(cmds.size(), geo.num_granules());
    }
  }
}

TEST(DeltaDirtyEncode, RandomizedRoundTrips) {
  Xoshiro256 rng(0xD17F);
  for (int trial = 0; trial < 40; ++trial) {
    // Random geometry: 1-8 blocks per counter line, 1-4 lines per
    // granule, and a block count that usually leaves a short tail.
    Geometry geo;
    geo.blocks_per_line = std::uint64_t{1} << rng.next_below(4);
    geo.granule_blocks = geo.blocks_per_line * (1 + rng.next_below(4));
    geo.num_blocks = 1 + rng.next_below(200);
    geo.num_lines =
        (geo.num_blocks + geo.blocks_per_line - 1) / geo.blocks_per_line;
    geo.separate_macs = (trial & 1) != 0;
    const Image base = make_image(geo, 100 + trial);
    const Image fresh = make_image(geo, 200 + trial);
    // Random dirty bitmap: dirty granules take fresh content, clean
    // ones keep the base's.
    Image target = base;
    std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
    std::uint64_t dirty_count = 0;
    for (std::uint64_t g = 0; g < geo.num_granules(); ++g) {
      if (rng.next_below(3) != 0) continue;
      dirty[g / 64] |= std::uint64_t{1} << (g % 64);
      ++dirty_count;
      copy_granule(geo, fresh, g, target);
    }
    std::vector<std::uint8_t> cmd;
    EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd), dirty_count);
    expect_roundtrip(geo, base, target, cmd);
  }
}

// ----------------------------------------------------- parser rejection

/// Hand-rolled wire helpers for malformed-stream tests.
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t le[8];
  store_le64(le, v);
  out.insert(out.end(), le, le + 8);
}
void put_copy(std::vector<std::uint8_t>& out, std::uint64_t dst,
              std::uint64_t n, std::uint64_t src) {
  out.push_back(Command::kCopy);
  put_u64(out, dst);
  put_u64(out, n);
  put_u64(out, src);
}

TEST(DeltaParse, OneAddPerGranuleIsExactlyTheStreamBound) {
  // The bound is tight: one single-granule ADD per granule parses and
  // is exactly max_stream_bytes long.
  const Geometry geo = tail_geometry(true);
  std::vector<std::uint8_t> cmd;
  for (std::uint64_t g = 0; g < geo.num_granules(); ++g) {
    cmd.push_back(Command::kAdd);
    put_u64(cmd, g);
    put_u64(cmd, 1);
    cmd.resize(cmd.size() + geo.payload_bytes(g), 0);
  }
  EXPECT_EQ(cmd.size(), max_stream_bytes(geo));
  std::vector<Command> cmds;
  EXPECT_TRUE(parse(geo, cmd, cmds));
}

TEST(DeltaParse, RejectsMalformedStreams) {
  const Geometry geo = tail_geometry(false);
  std::vector<Command> cmds;

  // Valid baseline: one self-COPY over all 5 granules.
  std::vector<std::uint8_t> ok;
  put_copy(ok, 0, geo.num_granules(), 0);
  ASSERT_TRUE(parse(geo, ok, cmds));

  // Every proper prefix is a truncation.
  for (std::size_t keep = 0; keep < ok.size(); ++keep) {
    EXPECT_FALSE(parse(
        geo, std::span<const std::uint8_t>(ok.data(), keep), cmds))
        << "kept " << keep;
  }

  std::vector<std::uint8_t> bad;
  // Unknown opcode.
  bad = ok;
  bad[0] = 7;
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Zero-length command.
  bad.clear();
  put_copy(bad, 0, 0, 0);
  put_copy(bad, 0, geo.num_granules(), 0);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Destination out of bounds.
  bad.clear();
  put_copy(bad, 1, geo.num_granules(), 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Source out of bounds.
  bad.clear();
  put_copy(bad, 0, geo.num_granules(), 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Double cover.
  bad.clear();
  put_copy(bad, 0, geo.num_granules(), 0);
  put_copy(bad, 2, 1, 2);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Incomplete cover.
  bad.clear();
  put_copy(bad, 0, geo.num_granules() - 1, 0);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Cross-COPY pairing a full source with the short tail destination:
  // shapes differ, so the parser must refuse even though both indices
  // are in range.
  bad.clear();
  put_copy(bad, 0, geo.num_granules() - 1, 0);
  put_copy(bad, 4, 1, 0);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // ADD whose payload is cut short.
  bad.clear();
  put_copy(bad, 0, geo.num_granules() - 1, 0);
  bad.push_back(Command::kAdd);
  put_u64(bad, 4);
  put_u64(bad, 1);
  bad.resize(bad.size() + geo.payload_bytes(4) - 1, 0xEE);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // ...and whole again with the last payload byte present.
  bad.push_back(0xEE);
  EXPECT_TRUE(parse(geo, bad, cmds));
  // Cross-COPY with both indices in range and equal shapes: the cover is
  // exact, but a COPY must keep its granules in place.
  bad.clear();
  put_copy(bad, 0, 3, 0);
  put_copy(bad, 4, 1, 4);
  put_copy(bad, 3, 1, 2);
  EXPECT_FALSE(parse(geo, bad, cmds));
}

}  // namespace
}  // namespace secmem::delta
