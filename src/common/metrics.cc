#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <ostream>

namespace secmem {

const char* metric_name(MetricId id) noexcept {
  switch (id) {
    case MetricId::kReads: return "reads";
    case MetricId::kWrites: return "writes";
    case MetricId::kByteReads: return "byte_reads";
    case MetricId::kByteWrites: return "byte_writes";
    case MetricId::kCorrectedData: return "corrected_data";
    case MetricId::kCorrectedMacField: return "corrected_mac_field";
    case MetricId::kCorrectedWord: return "corrected_word";
    case MetricId::kIntegrityViolations: return "integrity_violations";
    case MetricId::kCounterTampers: return "counter_tampers";
    case MetricId::kGroupReencryptions: return "group_reencryptions";
    case MetricId::kMacEvaluations: return "mac_evaluations";
    case MetricId::kScrubbedBlocks: return "scrubbed_blocks";
    case MetricId::kScrubRepairs: return "scrub_repairs";
    case MetricId::kScrubUncorrectable: return "scrub_uncorrectable";
    case MetricId::kKeyRotations: return "key_rotations";
    case MetricId::kRestores: return "restores";
    case MetricId::kTreeCacheHits: return "tree_cache.hits";
    case MetricId::kTreeCacheMisses: return "tree_cache.misses";
    case MetricId::kTreeCacheFills: return "tree_cache.fills";
    case MetricId::kTreeCacheAdmitDeclines:
      return "tree_cache.admit_declines";
    case MetricId::kTreeCacheWritebacks: return "tree_cache.writebacks";
    case MetricId::kTreeCacheFlushes: return "tree_cache.flushes";
    case MetricId::kTreeCacheProbeHits: return "tree_cache.probe_hits";
    case MetricId::kTreeCacheProbeMisses: return "tree_cache.probe_misses";
    case MetricId::kSharedReads: return "shared_reads";
    case MetricId::kSharedReadDeclines: return "shared_read_declines";
    case MetricId::kDeltaSaves: return "snapshot.delta.saves";
    case MetricId::kDeltaSaveFallbacks:
      return "snapshot.delta.save_fallbacks";
    case MetricId::kDeltaRestores: return "snapshot.delta.restores";
    case MetricId::kDeltaRejects: return "snapshot.delta.rejects";
    case MetricId::kCount_: break;
  }
  return "?";
}

const char* engine_hist_name(EngineHistId id) noexcept {
  switch (id) {
    case EngineHistId::kMacEvalsPerCorrection:
      return "mac_evals_per_correction";
    case EngineHistId::kReadLatencyNs: return "read_latency_ns";
    case EngineHistId::kWriteLatencyNs: return "write_latency_ns";
    case EngineHistId::kByteReadBytes: return "byte_read_bytes";
    case EngineHistId::kByteWriteBytes: return "byte_write_bytes";
    case EngineHistId::kReencryptedBlocks: return "reencrypted_blocks";
    case EngineHistId::kDeltaImageBytes: return "snapshot.delta.bytes";
    case EngineHistId::kDeltaDirtyGranules:
      return "snapshot.delta.dirty_granules";
    case EngineHistId::kCount_: break;
  }
  return "?";
}

std::size_t MetricsCell::log2_bucket(std::uint64_t v) noexcept {
  return std::min<std::size_t>(std::bit_width(v), kEngineHistBuckets - 1);
}

std::uint64_t MetricsCell::value(MetricId id) const noexcept {
  const auto i = static_cast<std::size_t>(id);
  std::uint64_t sum = owned_.counters[i].load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_)
    sum += stripe.counters[i].load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t MetricsCell::hist_bucket(EngineHistId hist,
                                       std::size_t bucket) const noexcept {
  const auto h = static_cast<std::size_t>(hist);
  std::uint64_t sum = owned_.hists[h][bucket].load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_)
    sum += stripe.hists[h][bucket].load(std::memory_order_relaxed);
  return sum;
}

void MetricsCell::reset() const noexcept {
  const auto clear = [](Stripe& stripe) {
    for (auto& c : stripe.counters) c.store(0, std::memory_order_relaxed);
    for (auto& hist : stripe.hists)
      for (auto& bucket : hist) bucket.store(0, std::memory_order_relaxed);
  };
  clear(owned_);
  for (Stripe& stripe : stripes_) clear(stripe);
}

std::uint64_t MetricsSink::total(MetricId id) const noexcept {
  std::uint64_t sum = 0;
  for (const MetricsCell& cell : cells_) sum += cell.value(id);
  return sum;
}

void MetricsSink::reset() noexcept {
  for (MetricsCell& cell : cells_) cell.reset();
}

void MetricsSink::publish(StatRegistry& registry,
                          const std::string& prefix) const {
  std::vector<const MetricsCell*> cells;
  cells.reserve(cells_.size());
  for (const MetricsCell& cell : cells_) cells.push_back(&cell);
  publish_cells(cells, registry, prefix);
}

void publish_cells(const std::vector<const MetricsCell*>& cells,
                   StatRegistry& registry, const std::string& prefix) {
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricId id = static_cast<MetricId>(m);
    std::uint64_t sum = 0;
    for (const MetricsCell* cell : cells) sum += cell->value(id);
    registry.counter(metric_path({prefix, metric_name(id)})).inc(sum);
  }
  for (std::size_t h = 0; h < kEngineHistCount; ++h) {
    const EngineHistId id = static_cast<EngineHistId>(h);
    StatHistogram& hist =
        registry.histogram(metric_path({prefix, engine_hist_name(id)}),
                           kEngineHistBuckets, 1, HistScale::kLog2);
    for (std::size_t bucket = 0; bucket < kEngineHistBuckets; ++bucket) {
      std::uint64_t sum = 0;
      for (const MetricsCell* cell : cells)
        sum += cell->hist_bucket(id, bucket);
      hist.add_bucket_count(bucket, sum);
    }
  }
}

const char* trace_kind_name(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::kRead: return "read";
    case TraceEvent::Kind::kWrite: return "write";
    case TraceEvent::Kind::kByteRead: return "byte-read";
    case TraceEvent::Kind::kByteWrite: return "byte-write";
    case TraceEvent::Kind::kScrub: return "scrub";
    case TraceEvent::Kind::kReencrypt: return "reencrypt";
    case TraceEvent::Kind::kKeyRotation: return "key-rotation";
    case TraceEvent::Kind::kRestore: return "restore";
  }
  return "?";
}

void TraceRing::record(TraceEvent::Kind kind, Status outcome,
                       std::uint64_t block, std::uint16_t shard) noexcept {
  const MutexLock lock(mu_);
  TraceEvent& slot = ring_[next_ % ring_.size()];
  slot.kind = kind;
  slot.outcome = outcome;
  slot.shard = shard;
  slot.block = block;
  slot.seq = next_;
  ++next_;
}

std::uint64_t TraceRing::recorded() const noexcept {
  const MutexLock lock(mu_);
  return next_;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const MutexLock lock(mu_);
  std::vector<TraceEvent> events;
  const std::uint64_t retained =
      std::min<std::uint64_t>(next_, ring_.size());
  events.reserve(retained);
  for (std::uint64_t i = next_ - retained; i < next_; ++i)
    events.push_back(ring_[i % ring_.size()]);
  return events;
}

void TraceRing::clear() noexcept {
  const MutexLock lock(mu_);
  next_ = 0;
}

void TraceRing::dump(std::ostream& os) const {
  for (const TraceEvent& e : snapshot()) {
    os << e.seq << ' ' << trace_kind_name(e.kind) << " shard=" << e.shard
       << " block=" << e.block << ' ' << to_string(e.outcome) << '\n';
  }
}

}  // namespace secmem
