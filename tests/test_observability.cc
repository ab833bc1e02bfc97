// Engine-layer tests for the unified observability API: EngineStats vs
// published registry parity, Status-reporting byte I/O, the
// SecureMemoryLike factory, sharded-vs-single counter parity, and trace
// rings (including shard tagging and fault outcomes).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/secure_memory.h"
#include "engine/secure_memory_like.h"
#include "engine/sharded_memory.h"
#include "json_lite.h"

namespace {

using namespace secmem;

SecureMemoryConfig small_config() {
  SecureMemoryConfig config;
  config.size_bytes = 1 * 1024 * 1024;
  return config;
}

DataBlock pattern_block(std::uint8_t seed) {
  DataBlock block{};
  for (std::size_t i = 0; i < block.size(); ++i)
    block[i] = static_cast<std::uint8_t>(seed + i);
  return block;
}

/// Drive the same deterministic workload through any engine.
void run_workload(SecureMemoryLike& memory, std::uint64_t ops) {
  Xoshiro256 rng(1234);
  const std::uint64_t blocks = memory.num_blocks();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t block = rng.next_below(blocks);
    if (i % 3 == 0) {
      EXPECT_EQ(memory.write_block(block, pattern_block(static_cast<std::uint8_t>(i))), Status::kOk);
    } else {
      ASSERT_TRUE(status_ok(memory.read_block(block).status));
    }
  }
  std::vector<std::uint8_t> buf(200);
  ASSERT_EQ(Status::kOk, memory.write_bytes(100, buf));
  ASSERT_EQ(Status::kOk, memory.read_bytes(100, buf));
}

// ----------------------------------------------------- factory / kinds

TEST(EngineFactoryTest, ParsesEveryKindAndAliases) {
  EngineKind kind;
  ASSERT_TRUE(parse_engine_kind("plain", kind));
  EXPECT_EQ(EngineKind::kPlain, kind);
  EXPECT_STREQ("plain", engine_kind_name(kind));
  kind = EngineKind::kSharded;
  ASSERT_TRUE(parse_engine_kind("single", kind));
  EXPECT_EQ(EngineKind::kPlain, kind);
  ASSERT_TRUE(parse_engine_kind("sharded", kind));
  EXPECT_EQ(EngineKind::kSharded, kind);
  EXPECT_STREQ("sharded", engine_kind_name(kind));
  // The single-lock configuration is `sharded` with one shard.
  EXPECT_FALSE(parse_engine_kind("concurrent", kind));
  EXPECT_FALSE(parse_engine_kind("single-mutex", kind));
  EXPECT_FALSE(parse_engine_kind("bogus", kind));
}

/// Every engine make_engine builds: plain, and sharded with one shard
/// (the single-lock configuration) and with four.
struct EngineChoice {
  EngineKind kind;
  unsigned shards;
};
constexpr EngineChoice kEveryEngine[] = {
    {EngineKind::kPlain, 0}, {EngineKind::kSharded, 1},
    {EngineKind::kSharded, 4}};

TEST(EngineFactoryTest, MakesWorkingEnginesOfEachKind) {
  for (const auto [kind, shards] : kEveryEngine) {
    SCOPED_TRACE(std::string(engine_kind_name(kind)) + " x" +
                 std::to_string(shards));
    const auto memory = make_engine(small_config(), kind, shards);
    ASSERT_NE(nullptr, memory);
    EXPECT_EQ(memory->write_block(7, pattern_block(0xAB)), Status::kOk);
    const ReadResult result = memory->read_block(7);
    EXPECT_EQ(Status::kOk, result.status);
    EXPECT_EQ(pattern_block(0xAB), result.data);
  }
}

// ------------------------------------------- stats vs published metrics

TEST(ObservabilityTest, PublishedCountersMatchStatsForEveryEngine) {
  for (const auto [kind, shards] : kEveryEngine) {
    const auto memory = make_engine(small_config(), kind, shards);
    run_workload(*memory, 300);

    const EngineStats stats = memory->stats();
    StatRegistry registry;
    memory->publish_metrics(registry, "engine");

    EXPECT_EQ(stats.reads, registry.counter_value("engine.reads"))
        << engine_kind_name(kind);
    EXPECT_EQ(stats.writes, registry.counter_value("engine.writes"))
        << engine_kind_name(kind);
    EXPECT_EQ(stats.group_reencryptions,
              registry.counter_value("engine.group_reencryptions"))
        << engine_kind_name(kind);
    EXPECT_GT(stats.reads, 0u);
    EXPECT_GT(stats.writes, 0u);

    memory->reset_stats();
    EXPECT_EQ(0u, memory->stats().reads) << engine_kind_name(kind);
    EXPECT_EQ(0u, memory->stats().writes) << engine_kind_name(kind);
  }
}

TEST(ObservabilityTest, ShardedPublishesPerShardBreakdown) {
  ShardedSecureMemory memory(small_config(), 4);
  run_workload(memory, 400);

  StatRegistry registry;
  memory.publish_metrics(registry, "engine");

  std::uint64_t shard_reads = 0;
  for (unsigned s = 0; s < 4; ++s)
    shard_reads += registry.counter_value(
        metric_path({"engine", "shard" + std::to_string(s), "reads"}));
  EXPECT_EQ(registry.counter_value("engine.reads"), shard_reads);
  EXPECT_GT(shard_reads, 0u);
}

// The acceptance parity check: the sharded engine must account the same
// workload identically to the plain engine (same blocks, same counters).
TEST(ShardedParityTest, CountersMatchPlainEngineForIdenticalWorkload) {
  SecureMemory plain(small_config());
  ShardedSecureMemory sharded(small_config(), 8);
  run_workload(plain, 500);
  run_workload(sharded, 500);

  const EngineStats a = plain.stats();
  const EngineStats b = sharded.stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.counter_tampers, b.counter_tampers);
  EXPECT_EQ(0u, a.integrity_violations);

  // The registry exports agree too (block-op totals are workload-defined;
  // re-encryptions depend on per-shard counter geometry and may differ).
  StatRegistry ra, rb;
  plain.publish_metrics(ra, "engine");
  sharded.publish_metrics(rb, "engine");
  EXPECT_EQ(ra.counter_value("engine.reads"),
            rb.counter_value("engine.reads"));
  EXPECT_EQ(ra.counter_value("engine.byte_reads"),
            rb.counter_value("engine.byte_reads"));
  EXPECT_EQ(ra.counter_value("engine.byte_writes"),
            rb.counter_value("engine.byte_writes"));
}

// ------------------------------------------------------- status byte IO

TEST(StatusByteApiTest, OkOnCleanRoundTrip) {
  SecureMemory memory(small_config());
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(Status::kOk, memory.write_bytes(1000, data));
  std::vector<std::uint8_t> readback(data.size());
  EXPECT_EQ(Status::kOk, memory.read_bytes(1000, readback));
  EXPECT_EQ(data, readback);
}

TEST(StatusByteApiTest, FoldsWorstBlockStatusAcrossTheRange) {
  SecureMemory memory(small_config());
  std::vector<std::uint8_t> data(64 * 3);
  ASSERT_EQ(Status::kOk, memory.write_bytes(0, data));
  // One corrected bit inside the middle block of the range: the fold
  // reports the correction, and data is still served.
  memory.untrusted().flip_ciphertext_bit(1, 17);
  std::vector<std::uint8_t> readback(data.size());
  const Status status = memory.read_bytes(0, readback);
  EXPECT_EQ(Status::kCorrectedData, status);
  EXPECT_TRUE(status_ok(status));
  EXPECT_EQ(data, readback);
}

TEST(StatusByteApiTest, TimeOpsPopulatesLatencyHistograms) {
  SecureMemoryConfig config = small_config();
  config.time_ops = true;
  SecureMemory memory(config);
  EXPECT_EQ(memory.write_block(0, pattern_block(1)), Status::kOk);
  (void)memory.read_block(0);

  StatRegistry registry;
  memory.publish_metrics(registry, "engine");
  std::ostringstream os;
  registry.write_json(os);
  const json_lite::Value root = json_lite::parse(os.str());
  EXPECT_GE(root.at("histograms")
                .at("engine.read_latency_ns")
                .at("total")
                .number(),
            1.0);
  EXPECT_GE(root.at("histograms")
                .at("engine.write_latency_ns")
                .at("total")
                .number(),
            1.0);
}

// ------------------------------------------------------------- tracing

TEST(TraceTest, PlainEngineRecordsOutcomesIncludingCorrections) {
  SecureMemory memory(small_config());
  TraceRing ring(128);
  memory.attach_trace(&ring);

  EXPECT_EQ(memory.write_block(3, pattern_block(9)), Status::kOk);
  memory.untrusted().flip_ciphertext_bit(3, 100);
  const ReadResult result = memory.read_block(3);
  ASSERT_EQ(Status::kCorrectedData, result.status);

  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(2u, events.size());
  EXPECT_EQ(TraceEvent::Kind::kWrite, events[0].kind);
  EXPECT_EQ(Status::kOk, events[0].outcome);
  EXPECT_EQ(TraceEvent::Kind::kRead, events[1].kind);
  EXPECT_EQ(Status::kCorrectedData, events[1].outcome);
  EXPECT_EQ(3u, events[1].block);

  // Detaching stops recording.
  memory.attach_trace(nullptr);
  (void)memory.read_block(3);
  EXPECT_EQ(2u, ring.recorded());
}

TEST(TraceTest, ShardedEngineTagsEventsWithOwningShard) {
  ShardedSecureMemory memory(small_config(), 4);
  TraceRing ring(256);
  memory.attach_trace(&ring);

  // One write per routing granule so all four shards see traffic.
  for (std::uint64_t g = 0; g < 16; ++g)
    EXPECT_EQ(memory.write_block(g * memory.granule_blocks(),
                                 pattern_block(static_cast<std::uint8_t>(g))),
              Status::kOk);
  std::vector<std::uint8_t> buf(100);
  ASSERT_EQ(Status::kOk, memory.read_bytes(0, buf));

  bool saw_nonzero_shard = false;
  bool saw_byte_read = false;
  for (const TraceEvent& event : ring.snapshot()) {
    EXPECT_LT(event.shard, 4u);
    if (event.shard != 0) saw_nonzero_shard = true;
    if (event.kind == TraceEvent::Kind::kByteRead) saw_byte_read = true;
  }
  EXPECT_TRUE(saw_nonzero_shard);
  EXPECT_TRUE(saw_byte_read);
}

// MT observability smoke under the sanitizer presets (name matches the
// TSan filter): concurrent readers with tracing + a stats poller.
TEST(ShardedObservabilityConcurrentTest, StatsAndTraceUnderParallelLoad) {
  ShardedSecureMemory memory(small_config(), 8);
  // Spread the hot set across shards (granule-interleaved routing).
  std::vector<std::uint64_t> hot(64);
  for (std::uint64_t i = 0; i < hot.size(); ++i) {
    hot[i] = (i * memory.granule_blocks()) % memory.num_blocks();
    EXPECT_EQ(memory.write_block(hot[i], pattern_block(static_cast<std::uint8_t>(i))), Status::kOk);
  }
  TraceRing ring(512);
  memory.attach_trace(&ring);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const EngineStats stats = memory.stats();
      EXPECT_EQ(0u, stats.integrity_violations);
    }
  });

  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kReads = 2000;
  std::vector<std::thread> workers;
  std::atomic<int> bad{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&memory, &bad, &hot, t] {
      Xoshiro256 rng(77 + t);
      for (std::uint64_t i = 0; i < kReads; ++i) {
        const auto result = memory.read_block(hot[rng.next_below(hot.size())]);
        if (!status_ok(result.status)) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(0, bad.load());
  const EngineStats stats = memory.stats();
  EXPECT_GE(stats.reads, kThreads * kReads);
  EXPECT_GE(ring.recorded(), kThreads * kReads);

  StatRegistry registry;
  memory.publish_metrics(registry, "engine");
  EXPECT_EQ(stats.reads, registry.counter_value("engine.reads"));
}

}  // namespace
