// Unit tests for the unified observability layer's core pieces:
// Status vocabulary, registry histograms/snapshots/JSON, the lock-free
// MetricsCell/MetricsSink plane, and the TraceRing.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/status.h"
#include "json_lite.h"

namespace {

using namespace secmem;

// ---------------------------------------------------------------- Status

TEST(StatusTest, SeverityOrderingDrivesWorseAndOk) {
  EXPECT_TRUE(status_ok(Status::kOk));
  EXPECT_TRUE(status_ok(Status::kCorrectedMacField));
  EXPECT_TRUE(status_ok(Status::kCorrectedData));
  EXPECT_TRUE(status_ok(Status::kCorrectedWord));
  EXPECT_FALSE(status_ok(Status::kIntegrityViolation));
  EXPECT_FALSE(status_ok(Status::kCounterTampered));

  EXPECT_EQ(Status::kCorrectedData,
            worse(Status::kOk, Status::kCorrectedData));
  EXPECT_EQ(Status::kIntegrityViolation,
            worse(Status::kIntegrityViolation, Status::kCorrectedMacField));
  EXPECT_EQ(Status::kCounterTampered,
            worse(Status::kCounterTampered, Status::kIntegrityViolation));
}

TEST(StatusTest, EveryValueHasAName) {
  for (const Status s :
       {Status::kOk, Status::kCorrectedMacField, Status::kCorrectedData,
        Status::kCorrectedWord, Status::kIntegrityViolation,
        Status::kCounterTampered}) {
    EXPECT_STRNE("?", to_string(s));
  }
}

// --------------------------------------------------------- metric_path

TEST(MetricPathTest, JoinsNonEmptySegments) {
  EXPECT_EQ("engine.shard3.reads",
            metric_path({"engine", "shard3", "reads"}));
  EXPECT_EQ("reads", metric_path({"", "reads"}));
  EXPECT_EQ("engine.reads", metric_path({"engine", "", "reads"}));
  EXPECT_EQ("", metric_path({}));
}

// ----------------------------------------------------------- histograms

TEST(StatHistogramTest, Log2BucketsFollowBitWidth) {
  StatHistogram hist(8, 1, HistScale::kLog2);
  hist.sample(0);  // bucket 0
  hist.sample(1);  // bucket 1
  hist.sample(2);  // bucket 2
  hist.sample(3);  // bucket 2
  hist.sample(4);  // bucket 3
  EXPECT_EQ(1u, hist.bucket(0));
  EXPECT_EQ(1u, hist.bucket(1));
  EXPECT_EQ(2u, hist.bucket(2));
  EXPECT_EQ(1u, hist.bucket(3));
  EXPECT_EQ(5u, hist.total());
  EXPECT_EQ(0u, hist.bucket_lower_bound(0));
  EXPECT_EQ(1u, hist.bucket_lower_bound(1));
  EXPECT_EQ(2u, hist.bucket_lower_bound(2));
  EXPECT_EQ(4u, hist.bucket_lower_bound(3));
}

TEST(StatHistogramTest, RegistryAccessorKeepsFirstShape) {
  StatRegistry reg;
  StatHistogram& h = reg.histogram("lat", 4, 10, HistScale::kLinear);
  EXPECT_EQ(4u, h.bucket_count());
  EXPECT_EQ(10u, h.bucket_width());
  // Re-registration with a different shape returns the original object.
  StatHistogram& again = reg.histogram("lat", 99, 1, HistScale::kLog2);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(4u, again.bucket_count());
  // The shapeless accessor also resolves to the same histogram.
  EXPECT_EQ(&h, &reg.histogram("lat"));
}

TEST(StatHistogramTest, DumpIncludesHistograms) {
  StatRegistry reg;
  reg.histogram("engine.read_latency", 8, 1, HistScale::kLog2).sample(5);
  reg.counter("engine.reads").inc();
  std::ostringstream os;
  reg.dump(os);
  EXPECT_NE(std::string::npos, os.str().find("engine.read_latency"));
  EXPECT_NE(std::string::npos, os.str().find("engine.reads"));
}

// -------------------------------------------------------------- scalars

TEST(StatScalarTest, MinTracksFirstSampleNotZero) {
  StatScalar s;
  EXPECT_EQ(0.0, s.min());
  s.sample(7.0);
  EXPECT_EQ(7.0, s.min());
  EXPECT_EQ(7.0, s.max());
  s.sample(3.0);
  s.sample(11.0);
  EXPECT_EQ(3.0, s.min());
  EXPECT_EQ(11.0, s.max());
  EXPECT_EQ(7.0, s.mean());
}

TEST(StatScalarTest, MergeIgnoresEmptySources) {
  StatScalar populated;
  populated.sample(5.0);
  StatScalar empty;
  populated.merge(empty);
  EXPECT_EQ(5.0, populated.min());
  EXPECT_EQ(1u, populated.count());

  StatScalar other;
  other.sample(2.0);
  populated.merge(other);
  EXPECT_EQ(2.0, populated.min());
  EXPECT_EQ(5.0, populated.max());
  EXPECT_EQ(2u, populated.count());
}

// ---------------------------------------------------- snapshot and diff

TEST(SnapshotTest, DiffSubtractsCountersAndBuckets) {
  StatRegistry reg;
  reg.counter("ops").inc(10);
  reg.histogram("sizes", 4, 1, HistScale::kLog2).sample(2);
  const RegistrySnapshot before = reg.snapshot();

  reg.counter("ops").inc(5);
  reg.histogram("sizes").sample(2);
  reg.histogram("sizes").sample(0);
  const RegistrySnapshot after = reg.snapshot();

  const RegistrySnapshot delta = snapshot_diff(after, before);
  EXPECT_EQ(5u, delta.counters.at("ops"));
  EXPECT_EQ(2u, delta.histograms.at("sizes").total);
  EXPECT_EQ(1u, delta.histograms.at("sizes").buckets[0]);
  EXPECT_EQ(1u, delta.histograms.at("sizes").buckets[2]);
}

TEST(SnapshotTest, DiffPassesThroughNewEntries) {
  StatRegistry before_reg;
  const RegistrySnapshot before = before_reg.snapshot();
  StatRegistry reg;
  reg.counter("fresh").inc(3);
  const RegistrySnapshot delta = snapshot_diff(reg.snapshot(), before);
  EXPECT_EQ(3u, delta.counters.at("fresh"));
}

// ------------------------------------------------------ JSON round-trip

TEST(JsonExportTest, RoundTripsThroughParser) {
  StatRegistry reg;
  reg.counter("engine.reads").inc(42);
  reg.counter("dram.ch0.row_hits").inc(7);
  reg.scalar("ipc").sample(1.25);
  reg.scalar("ipc").sample(0.75);
  reg.histogram("lat", 4, 1, HistScale::kLog2).sample(3);

  std::ostringstream os;
  reg.write_json(os);
  const json_lite::Value root = json_lite::parse(os.str());

  EXPECT_EQ(42.0, root.at("counters").at("engine.reads").number());
  EXPECT_EQ(7.0, root.at("counters").at("dram.ch0.row_hits").number());
  EXPECT_EQ(2.0, root.at("scalars").at("ipc").at("count").number());
  EXPECT_EQ(1.0, root.at("scalars").at("ipc").at("mean").number());
  EXPECT_EQ(0.75, root.at("scalars").at("ipc").at("min").number());
  const json_lite::Value& lat = root.at("histograms").at("lat");
  EXPECT_EQ("log2", lat.at("scale").str());
  EXPECT_EQ(1.0, lat.at("total").number());
  EXPECT_EQ(1.0, lat.at("buckets").array()[2].number());
}

TEST(JsonExportTest, EscapesSpecialCharactersInNames) {
  StatRegistry reg;
  reg.counter("weird\"name\\path").inc();
  std::ostringstream os;
  reg.write_json(os);
  const json_lite::Value root = json_lite::parse(os.str());
  EXPECT_EQ(1.0, root.at("counters").at("weird\"name\\path").number());
}

TEST(JsonExportTest, EmptyRegistryIsValidJson) {
  StatRegistry reg;
  std::ostringstream os;
  reg.write_json(os);
  const json_lite::Value root = json_lite::parse(os.str());
  EXPECT_TRUE(root.at("counters").object().empty());
  EXPECT_TRUE(root.at("scalars").object().empty());
  EXPECT_TRUE(root.at("histograms").object().empty());
}

// -------------------------------------------------- MetricsCell / Sink

TEST(MetricsCellTest, Log2BucketMatchesBitWidth) {
  EXPECT_EQ(0u, MetricsCell::log2_bucket(0));
  EXPECT_EQ(1u, MetricsCell::log2_bucket(1));
  EXPECT_EQ(2u, MetricsCell::log2_bucket(2));
  EXPECT_EQ(2u, MetricsCell::log2_bucket(3));
  EXPECT_EQ(3u, MetricsCell::log2_bucket(4));
  EXPECT_EQ(kEngineHistBuckets - 1,
            MetricsCell::log2_bucket(~std::uint64_t{0}));
}

TEST(MetricsCellTest, AddAndSampleAreVisibleToReaders) {
  MetricsCell cell;
  cell.add(MetricId::kReads, 3);
  cell.add(MetricId::kWrites);
  cell.sample(EngineHistId::kByteReadBytes, 100);  // bucket 7
  EXPECT_EQ(3u, cell.value(MetricId::kReads));
  EXPECT_EQ(1u, cell.value(MetricId::kWrites));
  EXPECT_EQ(1u, cell.hist_bucket(EngineHistId::kByteReadBytes, 7));
  cell.reset();
  EXPECT_EQ(0u, cell.value(MetricId::kReads));
  EXPECT_EQ(0u, cell.hist_bucket(EngineHistId::kByteReadBytes, 7));
}

TEST(MetricsSinkTest, AggregatesAcrossCellsAndPublishes) {
  MetricsSink sink(4);
  for (std::size_t i = 0; i < sink.cell_count(); ++i)
    sink.cell(i).add(MetricId::kReads, i + 1);
  EXPECT_EQ(1u + 2 + 3 + 4, sink.total(MetricId::kReads));

  StatRegistry reg;
  sink.publish(reg, "engine");
  EXPECT_EQ(10u, reg.counter_value("engine.reads"));

  sink.reset();
  EXPECT_EQ(0u, sink.total(MetricId::kReads));
}

TEST(MetricsSinkTest, PublishExportsHistogramsAsLog2) {
  MetricsSink sink(2);
  sink.cell(0).sample(EngineHistId::kMacEvalsPerCorrection, 513);
  sink.cell(1).sample(EngineHistId::kMacEvalsPerCorrection, 513);
  StatRegistry reg;
  sink.publish(reg, "engine");
  std::ostringstream os;
  reg.write_json(os);
  const json_lite::Value root = json_lite::parse(os.str());
  const json_lite::Value& h = root.at("histograms")
                                  .at("engine." +
                                      std::string(engine_hist_name(
                                          EngineHistId::kMacEvalsPerCorrection)));
  EXPECT_EQ("log2", h.at("scale").str());
  EXPECT_EQ(2.0, h.at("total").number());
  EXPECT_EQ(2.0, h.at("buckets").array()[10].number());  // 513 -> bucket 10
}

// The TSan preset (scripts/ci.sh) picks this suite up via its name: many
// writer threads hammer a shared sink while a reader polls totals.
TEST(ConcurrentMetricsSinkTest, ParallelRecordingIsRaceFree) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kEvents = 20000;
  MetricsSink sink(kThreads);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = sink.total(MetricId::kReads);
      EXPECT_GE(now, last);  // totals are monotone under concurrent adds
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      MetricsCell& cell = sink.cell(t);
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        cell.add(MetricId::kReads);
        cell.sample(EngineHistId::kReadLatencyNs, i & 0xFFF);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(kThreads * kEvents, sink.total(MetricId::kReads));
}

// Const adds land in the calling thread's stripe. Twice as many threads
// as stripes, all alive at once, so every stripe is written and some are
// shared; the cell's owner counts with single-writer stores meanwhile.
TEST(ConcurrentMetricsCell, ConstAddsFromManyThreadsSumExactly) {
  constexpr unsigned kThreads = 2 * kThreadSlots;
  constexpr std::uint64_t kEvents = 2000;
  constexpr std::uint64_t kOwnerEvents = 5000;
  MetricsCell cell;
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const MetricsCell& shared = cell;
      shared.add(MetricId::kSharedReads);
      shared.sample(EngineHistId::kReadLatencyNs, 100);  // bucket 7
      // Hold this thread's slot until every thread has one.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 1; i < kEvents; ++i) {
        shared.add(MetricId::kSharedReads);
        shared.sample(EngineHistId::kReadLatencyNs, 100);
      }
    });
  }
  for (std::uint64_t i = 0; i < kOwnerEvents; ++i)
    cell.add(MetricId::kSharedReads);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(kThreads * kEvents + kOwnerEvents,
            cell.value(MetricId::kSharedReads));
  EXPECT_EQ(kThreads * kEvents,
            cell.hist_bucket(EngineHistId::kReadLatencyNs, 7));
}

TEST(ConcurrentMetricsCell, ResetClearsEveryStripe) {
  constexpr unsigned kThreads = kThreadSlots;
  MetricsCell cell;
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::as_const(cell).add(MetricId::kReads, 3);
      std::as_const(cell).sample(EngineHistId::kByteReadBytes, 100);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();
  cell.add(MetricId::kReads);
  ASSERT_EQ(3u * kThreads + 1, cell.value(MetricId::kReads));
  ASSERT_EQ(kThreads, cell.hist_bucket(EngineHistId::kByteReadBytes, 7));

  cell.reset();
  EXPECT_EQ(0u, cell.value(MetricId::kReads));
  EXPECT_EQ(0u, cell.hist_bucket(EngineHistId::kByteReadBytes, 7));
  std::as_const(cell).add(MetricId::kReads);
  EXPECT_EQ(1u, cell.value(MetricId::kReads));
}

// ------------------------------------------------------------ TraceRing

TEST(TraceRingTest, KeepsNewestEventsOldestFirst) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i)
    ring.record(TraceEvent::Kind::kRead, Status::kOk, i);
  EXPECT_EQ(6u, ring.recorded());
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(4u, events.size());
  EXPECT_EQ(2u, events.front().block);  // blocks 2..5 retained
  EXPECT_EQ(5u, events.back().block);
  EXPECT_LT(events.front().seq, events.back().seq);
}

TEST(TraceRingTest, RecordsOutcomeShardAndKind) {
  TraceRing ring(8);
  ring.record(TraceEvent::Kind::kScrub, Status::kIntegrityViolation, 42, 3);
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(1u, events.size());
  EXPECT_EQ(TraceEvent::Kind::kScrub, events[0].kind);
  EXPECT_EQ(Status::kIntegrityViolation, events[0].outcome);
  EXPECT_EQ(42u, events[0].block);
  EXPECT_EQ(3u, events[0].shard);

  std::ostringstream os;
  ring.dump(os);
  EXPECT_NE(std::string::npos, os.str().find("scrub"));
  EXPECT_NE(std::string::npos, os.str().find("integrity-violation"));

  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
}

// TSan coverage for the ring (suite name matches the sanitizer filter).
TEST(TraceRingConcurrentTest, ParallelRecordingKeepsCapacityBound) {
  TraceRing ring(64);
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < 5000; ++i)
        ring.record(TraceEvent::Kind::kWrite, Status::kOk, i,
                    static_cast<std::uint16_t>(t));
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(4u * 5000, ring.recorded());
  EXPECT_EQ(64u, ring.snapshot().size());
}

}  // namespace
