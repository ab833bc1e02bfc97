// Integration tests over the full simulated system. Small protected
// regions and short runs keep them fast; the benches run the full-size
// configurations.
#include "sim/system_sim.h"

#include <gtest/gtest.h>

#include <bit>

#include "counters/delta_counter.h"
#include "counters/split_counter.h"

namespace secmem {
namespace {

SystemConfig small_system(Protection protection,
                          CounterSchemeKind scheme = CounterSchemeKind::kDelta,
                          MacPlacement placement = MacPlacement::kEccLane) {
  SystemConfig config;
  config.protection = protection;
  config.scheme = scheme;
  config.engine.mac_placement = placement;
  config.protected_bytes = 256ULL << 20;  // covers every profile's WS
  // Shrink caches so short runs produce real DRAM traffic.
  config.hierarchy.l1 = {8 * 1024, 2, 64};
  config.hierarchy.l2 = {32 * 1024, 4, 64};
  config.hierarchy.l3 = {256 * 1024, 8, 64};
  return config;
}

TEST(SystemSim, RunsToCompletionAndCountsInstructions) {
  SystemSimulator sim(small_system(Protection::kNone),
                      profile_by_name("freqmine"));
  const SimResult result = sim.run(5000);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GE(result.instructions, 4u * 5000u);
  EXPECT_GT(result.ipc, 0.0);
  EXPECT_GT(result.dram_reads, 0u);
}

TEST(SystemSim, Deterministic) {
  const auto run_once = [] {
    SystemSimulator sim(small_system(Protection::kEncrypted),
                        profile_by_name("canneal"));
    return sim.run(3000);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.reencryptions, b.reencryptions);
}

TEST(SystemSim, EncryptionCostsIpc) {
  SystemSimulator plain(small_system(Protection::kNone),
                        profile_by_name("canneal"));
  SystemSimulator encrypted(small_system(Protection::kEncrypted),
                            profile_by_name("canneal"));
  const double ipc_plain = plain.run(8000).ipc;
  const double ipc_enc = encrypted.run(8000).ipc;
  EXPECT_LT(ipc_enc, ipc_plain)
      << "authenticated encryption was free?!";
  EXPECT_GT(ipc_enc, 0.3 * ipc_plain) << "slowdown implausibly large";
}

TEST(SystemSim, EccLaneMacBeatsSeparateMac) {
  // Figure 8 / §3: same workload, same counters; only MAC placement
  // differs. MAC-in-ECC must not be slower.
  SystemSimulator ecc(small_system(Protection::kEncrypted,
                                   CounterSchemeKind::kMonolithic56,
                                   MacPlacement::kEccLane),
                      profile_by_name("canneal"));
  SystemSimulator sep(small_system(Protection::kEncrypted,
                                   CounterSchemeKind::kMonolithic56,
                                   MacPlacement::kSeparate),
                      profile_by_name("canneal"));
  const SimResult r_ecc = ecc.run(8000);
  const SimResult r_sep = sep.run(8000);
  EXPECT_GE(r_ecc.ipc, r_sep.ipc);
  EXPECT_LT(r_ecc.dram_reads, r_sep.dram_reads);
}

TEST(SystemSim, ObserversSeeWritebackStream) {
  SystemConfig config = small_system(Protection::kNone);
  SystemSimulator sim(config, profile_by_name("dedup"));
  SplitCounters split(config.protected_bytes / 64);
  DeltaCounters delta(config.protected_bytes / 64);
  sim.add_observer(&split);
  sim.add_observer(&delta);
  sim.run(20000);
  // Both observers saw identical write streams.
  std::uint64_t split_writes = 0, delta_writes = 0;
  for (BlockIndex b = 0; b < 4096; ++b) {
    split_writes += split.read_counter(b) > 0;
    delta_writes += delta.read_counter(b) > 0;
  }
  EXPECT_EQ(split_writes, delta_writes);
  EXPECT_GT(split_writes, 0u);
}

TEST(SystemSim, UniformSweepFavoursDeltaOverSplit) {
  // The Table 2 mechanism end-to-end: a sweep-heavy workload re-encrypts
  // under split counters but resets under delta encoding.
  SystemConfig config = small_system(Protection::kNone);
  SystemSimulator sim(config, profile_by_name("freqmine"));
  SplitCounters split(config.protected_bytes / 64);
  DeltaCounters delta(config.protected_bytes / 64);
  sim.add_observer(&split);
  sim.add_observer(&delta);
  sim.run(400000);
  EXPECT_LE(delta.reencryptions(), split.reencryptions());
}

TEST(SystemSim, CacheResidentWorkloadBarelyTouchesDram) {
  SystemConfig config = small_system(Protection::kEncrypted);
  config.hierarchy = HierarchyConfig{};  // full-size caches (10MB L3)
  SystemSimulator sim(config, profile_by_name("swaptions"));
  const SimResult result = sim.run(30000);
  // 2MB working set in a 10MB LLC: after warmup, DRAM traffic ~ compulsory
  // misses only.
  EXPECT_LT(result.dram_reads, 3 * (2 * 1024 * 1024 / 64))
      << "cache-resident workload thrashed DRAM";
  EXPECT_EQ(result.reencryptions, 0u);
}

TEST(SystemSim, ReencryptionsReportedForHotWorkload) {
  SystemConfig config = small_system(Protection::kEncrypted,
                                     CounterSchemeKind::kSplit);
  // Tiny caches so hot lines are evicted (and their counters written)
  // between revisits.
  config.hierarchy.l1 = {4 * 1024, 2, 64};
  config.hierarchy.l2 = {8 * 1024, 4, 64};
  config.hierarchy.l3 = {16 * 1024, 8, 64};
  // A deliberately write-hot profile: 6 skewed groups (384 blocks/thread)
  // — wide enough to thrash the tiny L3, hot enough to overflow minors.
  WorkloadProfile profile = profile_by_name("facesim");
  profile.w_sweep = 0;
  profile.w_random = 0.2;
  profile.hot = WorkloadProfile::HotSpec{0.8, HotMode::kSkewed, 6, 0, 0.1, 0};
  profile.hot2.weight = 0;
  SystemSimulator sim(config, profile);
  const SimResult result = sim.run(1000000);
  EXPECT_GT(result.reencryptions, 0u);
}

// Pinned timing-model results: the Figure 8 variants on two apps over the
// small hierarchy above, every event count and the exact IPC bits. They
// hold the simulated system fixed while its host-side code changes; a
// change that is meant to move them must say so and re-capture them.
struct Variant {
  Protection protection;
  CounterSchemeKind scheme;
  MacPlacement placement;
};
constexpr Variant kNoEnc{Protection::kNone, CounterSchemeKind::kMonolithic56,
                         MacPlacement::kEccLane};
constexpr Variant kBmt{Protection::kEncrypted, CounterSchemeKind::kMonolithic56,
                       MacPlacement::kSeparate};
constexpr Variant kMacEcc{Protection::kEncrypted,
                          CounterSchemeKind::kMonolithic56,
                          MacPlacement::kEccLane};
constexpr Variant kDelta{Protection::kEncrypted, CounterSchemeKind::kDelta,
                         MacPlacement::kSeparate};
constexpr Variant kOptimized{Protection::kEncrypted, CounterSchemeKind::kDelta,
                             MacPlacement::kEccLane};

struct Pin {
  std::uint64_t cycles, instructions, ipc_bits, dram_reads, dram_writes,
      reencryptions, metacache_hits, metacache_misses;
};

void expect_pinned(const char* app, const Variant& v, const Pin& pin) {
  constexpr std::uint64_t kRefs = 6000;
  SystemConfig config = small_system(v.protection, v.scheme, v.placement);
  config.warmup_refs = kRefs / 3;
  SystemSimulator sim(config, profile_by_name(app));
  const SimResult r = sim.run(kRefs);
  EXPECT_EQ(r.cycles, pin.cycles);
  EXPECT_EQ(r.instructions, pin.instructions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ipc), pin.ipc_bits) << r.ipc;
  EXPECT_EQ(r.dram_reads, pin.dram_reads);
  EXPECT_EQ(r.dram_writes, pin.dram_writes);
  EXPECT_EQ(r.reencryptions, pin.reencryptions);
  EXPECT_EQ(sim.stats().counter_value("metacache.hits"), pin.metacache_hits);
  EXPECT_EQ(sim.stats().counter_value("metacache.misses"),
            pin.metacache_misses);
}

TEST(SystemSim, CannealNoEncPinned) {
  expect_pinned(
      "canneal", kNoEnc,
      {161745, 1049884, 0x4019f593b2b35039, 10626, 2691, 0, 0, 0});
}

TEST(SystemSim, CannealBmtPinned) {
  expect_pinned(
      "canneal", kBmt,
      {411230, 1049884, 0x4004415325d2a3f0, 49216, 11861, 0, 21876, 38590});
}

TEST(SystemSim, CannealMacEccPinned) {
  expect_pinned(
      "canneal", kMacEcc,
      {354518, 1049884, 0x40079ce4692d1522, 40200, 9103, 0, 16382, 29574});
}

TEST(SystemSim, CannealDeltaPinned) {
  expect_pinned(
      "canneal", kDelta,
      {349052, 1049884, 0x4007f9d71ec64442, 39304, 8998, 0, 20737, 28677});
}

TEST(SystemSim, CannealOptimizedPinned) {
  expect_pinned(
      "canneal", kOptimized,
      {277562, 1049884, 0x400e4b476cb41197, 30194, 6929, 0, 15664, 19567});
}

TEST(SystemSim, DedupNoEncPinned) {
  expect_pinned(
      "dedup", kNoEnc,
      {184574, 1301940, 0x401dae483a157f78, 8780, 4926, 0, 0, 0});
}

TEST(SystemSim, DedupBmtPinned) {
  expect_pinned(
      "dedup", kBmt,
      {456489, 1301940, 0x4005d04b2956e6d6, 28837, 15495, 0, 25771, 20052});
}

TEST(SystemSim, DedupMacEccPinned) {
  expect_pinned(
      "dedup", kMacEcc,
      {356387, 1301940, 0x400c44671c61ba74, 20167, 9526, 0, 15788, 11392});
}

TEST(SystemSim, DedupDeltaPinned) {
  expect_pinned(
      "dedup", kDelta,
      {339362, 1301940, 0x400f3c527ee3c0f3, 20856, 10190, 0, 25290, 12074});
}

TEST(SystemSim, DedupOptimizedPinned) {
  expect_pinned(
      "dedup", kOptimized,
      {289952, 1301940, 0x4012c624a152146d, 15967, 7723, 0, 15194, 7180});
}

}  // namespace
}  // namespace secmem
