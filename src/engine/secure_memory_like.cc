#include "engine/secure_memory_like.h"

#include <cstring>
#include <sstream>

#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"

namespace secmem {

const char* read_status_name(ReadStatus status) noexcept {
  return to_string(status);
}

Status SecureMemoryLike::save(std::vector<std::byte>& image) {
  std::ostringstream out(std::ios::binary);
  const Status status = save(out);
  image.clear();
  if (status_ok(status)) {
    const std::string bytes = std::move(out).str();
    image.resize(bytes.size());
    std::memcpy(image.data(), bytes.data(), bytes.size());
  }
  return status;
}

bool SecureMemoryLike::restore(std::span<const std::byte> image) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(image.data()), image.size()),
      std::ios::binary);
  return restore(in);
}

Status SecureMemoryLike::save_delta(std::vector<std::byte>& image) {
  std::ostringstream out(std::ios::binary);
  const Status status = save_delta(out);
  image.clear();
  if (status_ok(status)) {
    const std::string bytes = std::move(out).str();
    image.resize(bytes.size());
    std::memcpy(image.data(), bytes.data(), bytes.size());
  }
  return status;
}

bool SecureMemoryLike::restore_delta(std::span<const std::byte> image) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(image.data()), image.size()),
      std::ios::binary);
  return restore_delta(in);
}

const char* scrub_status_name(ScrubStatus status) noexcept {
  switch (status) {
    case ScrubStatus::kClean: return "clean";
    case ScrubStatus::kRepairedMacField: return "repaired-mac-field";
    case ScrubStatus::kRepairedData: return "repaired-data";
    case ScrubStatus::kUncorrectable: return "uncorrectable";
    case ScrubStatus::kCounterTampered: return "counter-tampered";
    case ScrubStatus::kRegionPoisoned: return "region-poisoned";
  }
  return "?";
}

Status to_status(ScrubStatus status) noexcept {
  switch (status) {
    case ScrubStatus::kClean: return Status::kOk;
    case ScrubStatus::kRepairedMacField: return Status::kCorrectedMacField;
    case ScrubStatus::kRepairedData: return Status::kCorrectedData;
    case ScrubStatus::kUncorrectable: return Status::kIntegrityViolation;
    case ScrubStatus::kCounterTampered: return Status::kCounterTampered;
    case ScrubStatus::kRegionPoisoned: return Status::kRegionPoisoned;
  }
  return Status::kIntegrityViolation;
}

EngineStats engine_stats_from(
    const std::vector<const MetricsCell*>& cells) noexcept {
  EngineStats stats;
  for (const MetricsCell* cell : cells) {
    stats.reads += cell->value(MetricId::kReads);
    stats.writes += cell->value(MetricId::kWrites);
    stats.corrected_data += cell->value(MetricId::kCorrectedData);
    stats.corrected_mac_field += cell->value(MetricId::kCorrectedMacField);
    stats.corrected_word += cell->value(MetricId::kCorrectedWord);
    stats.integrity_violations +=
        cell->value(MetricId::kIntegrityViolations);
    stats.counter_tampers += cell->value(MetricId::kCounterTampers);
    stats.group_reencryptions +=
        cell->value(MetricId::kGroupReencryptions);
    stats.mac_evaluations += cell->value(MetricId::kMacEvaluations);
    stats.tree_cache_hits += cell->value(MetricId::kTreeCacheHits);
    stats.tree_cache_misses += cell->value(MetricId::kTreeCacheMisses);
  }
  return stats;
}

const char* engine_kind_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kPlain: return "plain";
    case EngineKind::kSharded: return "sharded";
  }
  return "?";
}

bool parse_engine_kind(const std::string& text, EngineKind& out) noexcept {
  if (text == "plain" || text == "single") {
    out = EngineKind::kPlain;
  } else if (text == "sharded") {
    out = EngineKind::kSharded;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<SecureMemoryLike> make_engine(const SecureMemoryConfig& config,
                                              EngineKind kind,
                                              unsigned shards) {
  switch (kind) {
    case EngineKind::kPlain:
      return std::make_unique<SecureMemory>(config);
    case EngineKind::kSharded:
      return std::make_unique<ShardedSecureMemory>(config,
                                                   shards ? shards : 8);
  }
  return nullptr;
}

}  // namespace secmem
