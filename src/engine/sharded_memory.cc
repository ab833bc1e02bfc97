#include "engine/sharded_memory.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>

#include "common/bitops.h"
#include "common/rng.h"
#include "engine/byte_range.h"

namespace secmem {

namespace {

/// Independent per-shard master secret. Mixing the shard index through
/// splitmix64 keeps shard keys unrelated, so identical plaintexts at the
/// same shard-local (addr, counter) in two shards still encrypt under
/// distinct pads.
std::uint64_t shard_master_key(std::uint64_t master, unsigned shard) {
  std::uint64_t state = master ^ (0x5ec'da7a'5a2dULL + shard);
  return splitmix64(state);
}

/// Probe the counter scheme a config resolves to and return the routing
/// granule: the smallest block count that is a whole number of
/// re-encryption groups AND counter-storage lines (and at least a 4 KB
/// block-group), so striping granules across shards never splits either
/// unit of locality.
unsigned routing_granule_blocks(const SecureMemoryConfig& config) {
  SecureMemoryConfig probe = config;
  probe.size_bytes = 256 * 1024;  // geometry is size-independent
  const auto scheme = SecureMemory::make_scheme(probe);
  unsigned granule = std::lcm(scheme->blocks_per_group(),
                              scheme->blocks_per_storage_line());
  return std::lcm(granule, 64u);  // >= one 4 KB block-group
}

constexpr char kShardMagic[8] = {'S', 'E', 'C', 'S', 'H', 'R', 'D', '1'};
/// Delta-container magic: header + per-shard length table + per-shard
/// payloads (each a SecureMemory full OR delta image — a shard with a
/// broken chain falls back to full).
constexpr char kShardDeltaMagic[8] = {'S', 'E', 'C', 'S', 'H', 'D', 'L', '1'};
using delta::is_magic;
using delta::read_u64;
using delta::write_u64;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// ostream sink appending straight into a caller-owned byte vector, so
/// the parallel delta-save workers each serialize into their shard's
/// recycled slice buffer instead of contending on one shared stream.
class VectorSink final : public std::streambuf {
 public:
  explicit VectorSink(std::vector<char>& out) : out_(out) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.insert(out_.end(), s, s + n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
      out_.push_back(traits_type::to_char_type(ch));
    return ch;
  }

 private:
  std::vector<char>& out_;
};

}  // namespace

ShardedSecureMemory::ShardedSecureMemory(const SecureMemoryConfig& config,
                                         unsigned num_shards)
    : size_bytes_(config.size_bytes),
      num_shards_(num_shards),
      granule_blocks_(routing_granule_blocks(config)),
      num_blocks_(config.size_bytes / 64),
      pool_(ShardPool::helpers_for(num_shards)) {
  if (num_shards == 0)
    throw std::invalid_argument("ShardedSecureMemory: need >= 1 shard");
  const std::uint64_t granule_bytes = granule_blocks_ * 64ULL;
  if (config.size_bytes == 0 ||
      config.size_bytes % (num_shards * granule_bytes) != 0) {
    throw std::invalid_argument(
        "ShardedSecureMemory: region size " +
        std::to_string(config.size_bytes) + " is not a multiple of " +
        std::to_string(num_shards) + " shards x " +
        std::to_string(granule_bytes) + "-byte granule");
  }
  SecureMemoryConfig shard_config = config;
  shard_config.size_bytes = config.size_bytes / num_shards;
  shards_ = std::make_unique<Shard[]>(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    shard_config.master_key = shard_master_key(config.master_key, s);
    shards_[s].engine = std::make_unique<SecureMemory>(shard_config);
  }
  // Longest slice a delta container may claim for one shard: the
  // largest image a shard engine can emit. Fixed by geometry, so
  // restore_delta reads it lock-free.
  slice_cap_ = shards_[0].engine->max_image_bytes();
  delta_slices_.resize(num_shards);
}

void ShardedSecureMemory::check_block(std::uint64_t block) const {
  if (block >= num_blocks_)
    throw std::out_of_range("ShardedSecureMemory: block " +
                            std::to_string(block) + " out of range");
}

ShardedSecureMemory::Route ShardedSecureMemory::route(
    std::uint64_t block) const {
  const std::uint64_t granule = block / granule_blocks_;
  return Route{
      static_cast<unsigned>(granule % num_shards_),
      (granule / num_shards_) * granule_blocks_ + block % granule_blocks_};
}

Status ShardedSecureMemory::write_block(std::uint64_t block,
                                        const DataBlock& plaintext) {
  check_block(block);
  const Route r = route(block);
  Shard& s = shards_[r.shard];
  const SeqWriteLock lock(s.mu);
  return s.engine->write_block(r.local_block, plaintext);
}

SecureMemory::ReadResult ShardedSecureMemory::read_block(
    std::uint64_t block) {
  check_block(block);
  const Route r = route(block);
  Shard& s = shards_[r.shard];
  {
    // Shared fast path: any number of readers verify in parallel under
    // the shard's reader lock; nullopt is the promotion pulse declining
    // (cold counter line) — fall through to the exclusive path, whose
    // verify() installs the line into the verified frontier.
    const SeqReadLock lock(s.mu);
    if (const auto res = s.engine->read_block_shared(r.local_block))
      return *res;
  }
  const SeqWriteLock lock(s.mu);
  return s.engine->read_block(r.local_block);
}

SecureMemory::ScrubStatus ShardedSecureMemory::scrub_block(
    std::uint64_t block, bool deep) {
  check_block(block);
  const Route r = route(block);
  Shard& s = shards_[r.shard];
  const SeqWriteLock lock(s.mu);
  return s.engine->scrub_block(r.local_block, deep);
}

std::vector<SecureMemory::ReadResult> ShardedSecureMemory::read_blocks(
    std::span<const std::uint64_t> blocks) {
  for (const std::uint64_t block : blocks) check_block(block);

  // Visit requests grouped by shard so each shard lock is taken once per
  // batch. Shard ids are small and dense, so a two-pass counting sort
  // builds the visit order in O(n + shards) — the old indirect
  // stable_sort was a measurable per-batch tax on single-shard hot
  // batches — and keeps same-shard requests in caller order (the
  // scatter pass below is stable by construction).
  std::vector<std::uint32_t> order(blocks.size());
  std::vector<std::uint32_t> cursor(num_shards_ + 1, 0);
  for (const std::uint64_t block : blocks) ++cursor[shard_of_block(block) + 1];
  for (unsigned s = 0; s < num_shards_; ++s) cursor[s + 1] += cursor[s];
  for (std::uint32_t i = 0; i < blocks.size(); ++i)
    order[cursor[shard_of_block(blocks[i])]++] = i;

  std::vector<SecureMemory::ReadResult> results(blocks.size());
  std::vector<std::uint64_t> local_blocks;
  std::vector<SecureMemory::ReadResult> shard_results;
  std::vector<std::uint32_t> declined;
  std::size_t i = 0;
  while (i < order.size()) {
    const unsigned shard = shard_of_block(blocks[order[i]]);
    const std::size_t run_start = i;
    local_blocks.clear();
    for (; i < order.size() && shard_of_block(blocks[order[i]]) == shard;
         ++i) {
      local_blocks.push_back(route(blocks[order[i]]).local_block);
    }
    Shard& s = shards_[shard];
    // Shared batch fast path; only the declined indices (cold counter
    // lines bounced by the promotion pulse) pay the exclusive lock.
    shard_results.assign(local_blocks.size(), {});
    declined.clear();
    {
      const SeqReadLock lock(s.mu);
      s.engine->read_blocks_shared(local_blocks, shard_results, declined);
    }
    if (!declined.empty()) {
      const SeqWriteLock lock(s.mu);
      for (const std::uint32_t d : declined)
        shard_results[d] = s.engine->read_block(local_blocks[d]);
    }
    for (std::size_t k = 0; k < shard_results.size(); ++k)
      results[order[run_start + k]] = std::move(shard_results[k]);
  }
  return results;
}

Status ShardedSecureMemory::write_blocks(std::span<const BlockWrite> writes) {
  for (const BlockWrite& w : writes) check_block(w.block);

  // Same counting-sort grouping as read_blocks (stable, O(n + shards)).
  std::vector<std::uint32_t> order(writes.size());
  std::vector<std::uint32_t> cursor(num_shards_ + 1, 0);
  for (const BlockWrite& w : writes) ++cursor[shard_of_block(w.block) + 1];
  for (unsigned s = 0; s < num_shards_; ++s) cursor[s + 1] += cursor[s];
  for (std::uint32_t i = 0; i < writes.size(); ++i)
    order[cursor[shard_of_block(writes[i].block)]++] = i;

  Status folded = Status::kOk;
  std::vector<BlockWrite> local_writes;
  std::size_t i = 0;
  while (i < order.size()) {
    const unsigned shard = shard_of_block(writes[order[i]].block);
    local_writes.clear();
    for (; i < order.size() &&
           shard_of_block(writes[order[i]].block) == shard;
         ++i) {
      const BlockWrite& w = writes[order[i]];
      local_writes.push_back({route(w.block).local_block, w.data});
    }
    Shard& s = shards_[shard];
    const SeqWriteLock lock(s.mu);
    folded = worse(folded, s.engine->write_blocks(local_writes));
  }
  return folded;
}

std::vector<std::size_t> ShardedSecureMemory::shards_in_range(
    std::uint64_t first_block, std::uint64_t last_block) const {
  const std::uint64_t first_granule = first_block / granule_blocks_;
  const std::uint64_t last_granule = last_block / granule_blocks_;
  std::vector<std::size_t> shards;
  if (last_granule - first_granule + 1 >= num_shards_) {
    shards.resize(num_shards_);
    std::iota(shards.begin(), shards.end(), std::size_t{0});
    return shards;
  }
  for (std::uint64_t g = first_granule; g <= last_granule; ++g)
    shards.push_back(static_cast<std::size_t>(g % num_shards_));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<SeqLock*> ShardedSecureMemory::mutexes_of(
    std::span<const std::size_t> shards) const {
  std::vector<SeqLock*> mutexes;
  mutexes.reserve(shards.size());
  for (const std::size_t s : shards) mutexes.push_back(&shards_[s].mu);
  return mutexes;
}

// Cross-shard byte ranges: a runtime-selected lock set acquired in fixed
// ascending order (lock_in_order) — beyond static thread-safety analysis;
// covered by the TSan preset's sharded stress tests. Reads and writes take
// the same exclusive set, so either sees the range at one instant. Both
// trace the block their verdict names, and that block's shard.
Status ShardedSecureMemory::write_bytes(std::uint64_t addr,
                                        std::span<const std::uint8_t> bytes)
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  if (addr > size_bytes_ || bytes.size() > size_bytes_ - addr)
    throw std::out_of_range(
        "ShardedSecureMemory::write_bytes: range exceeds region");
  metrics_.add(MetricId::kByteWrites);
  metrics_.sample(EngineHistId::kByteWriteBytes, bytes.size());
  if (bytes.empty()) return Status::kOk;

  const auto locks = lock_in_order(mutexes_of(
      shards_in_range(addr / 64, (addr + bytes.size() - 1) / 64)));
  // Same all-or-nothing protocol as SecureMemory::write_bytes, but with
  // every touched shard held: the edge blocks are pre-verified before any
  // shard is mutated.
  const RangeVerdict verdict = write_range(
      addr, bytes,
      [this](std::uint64_t block) SECMEM_NO_THREAD_SAFETY_ANALYSIS {
        const Route r = route(block);
        return shards_[r.shard].engine->read_block(r.local_block);
      },
      [this](std::uint64_t block, const DataBlock& plain)
          SECMEM_NO_THREAD_SAFETY_ANALYSIS {
            const Route r = route(block);
            return shards_[r.shard].engine->write_block(r.local_block,
                                                         plain);
          });
  trace(TraceEvent::Kind::kByteWrite, verdict.status, verdict.block,
        shard_of_block(verdict.block));
  return verdict.status;
}

Status ShardedSecureMemory::read_bytes(std::uint64_t addr,
                                       std::span<std::uint8_t> out)
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  if (addr > size_bytes_ || out.size() > size_bytes_ - addr)
    throw std::out_of_range(
        "ShardedSecureMemory::read_bytes: range exceeds region");
  metrics_.add(MetricId::kByteReads);
  metrics_.sample(EngineHistId::kByteReadBytes, out.size());
  if (out.empty()) return Status::kOk;

  const auto locks = lock_in_order(mutexes_of(
      shards_in_range(addr / 64, (addr + out.size() - 1) / 64)));
  const RangeVerdict verdict = read_range(
      addr, out, [this](std::uint64_t block) SECMEM_NO_THREAD_SAFETY_ANALYSIS {
        const Route r = route(block);
        return shards_[r.shard].engine->read_block(r.local_block);
      });
  trace(TraceEvent::Kind::kByteRead, verdict.status, verdict.block,
        shard_of_block(verdict.block));
  return verdict.status;
}

SecureMemory::ScrubReport ShardedSecureMemory::scrub_all(bool deep) {
  std::vector<SecureMemory::ScrubReport> reports(num_shards_);
  pool_.run(num_shards_, [this, deep, &reports](unsigned s) {
    Shard& shard = shards_[s];
    const SeqWriteLock lock(shard.mu);
    reports[s] = shard.engine->scrub_all(deep);
  });

  SecureMemory::ScrubReport total;
  for (const SecureMemory::ScrubReport& r : reports) {
    total.scanned += r.scanned;
    total.quick_clean += r.quick_clean;
    total.repaired_mac += r.repaired_mac;
    total.repaired_data += r.repaired_data;
    total.uncorrectable += r.uncorrectable;
    total.counter_tampered += r.counter_tampered;
  }
  return total;
}

ShardedSecureMemory::AllShards ShardedSecureMemory::lock_all_shards()
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<std::size_t> all(num_shards_);
  std::iota(all.begin(), all.end(), std::size_t{0});
  AllShards held{lock_in_order(mutexes_of(all)), {}};
  held.engines.reserve(num_shards_);
  for (unsigned s = 0; s < num_shards_; ++s)
    held.engines.push_back(shards_[s].engine.get());
  return held;
}

// Stage-then-commit, the restores' protocol: every shard verifies and
// decrypts under its current keys before any shard is re-keyed, so a
// refusal returns with nothing changed, and the commit cannot fail.
// snapshot_mu_ first, then every shard lock (see lock_all_shards); both
// halves run shard-parallel — on this thread alone if another job holds
// the pool, since that job may be waiting for one of the locks held here.
bool ShardedSecureMemory::rotate_master_key(std::uint64_t new_master) {
  const MutexLock region(snapshot_mu_);
  const AllShards all = lock_all_shards();
  std::vector<std::optional<std::vector<DataBlock>>> plaintexts(num_shards_);
  pool_.run(num_shards_, [&all, &plaintexts](unsigned s) {
    plaintexts[s] = all.engines[s]->stage_rotation();
  });
  // A refusing shard traced its first bad block.
  for (const auto& shard_plaintexts : plaintexts)
    if (!shard_plaintexts) return false;
  pool_.run(num_shards_, [&all, &plaintexts, new_master](unsigned s) {
    all.engines[s]->commit_rotation(*plaintexts[s],
                                    shard_master_key(new_master, s));
  });
  return true;
}

// Lock-free by contract: MetricsCells are relaxed atomics, readable while
// worker threads are mid-operation — intentionally outside the lock
// discipline, hence outside the static analysis.
std::vector<const MetricsCell*> ShardedSecureMemory::all_cells() const
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  std::vector<const MetricsCell*> cells;
  cells.reserve(num_shards_ + 1);
  for (unsigned s = 0; s < num_shards_; ++s)
    cells.push_back(&shards_[s].engine->metrics_cell());
  cells.push_back(&metrics_);
  return cells;
}

EngineStats ShardedSecureMemory::stats() const noexcept {
  // No locks: the cells are relaxed atomics, so this is safe to call
  // while worker threads are mid-operation (the result is monotonic per
  // counter, not a cross-shard snapshot).
  return engine_stats_from(all_cells());
}

void ShardedSecureMemory::reset_stats() noexcept
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  for (unsigned s = 0; s < num_shards_; ++s) shards_[s].engine->reset_stats();
  metrics_.reset();
}

void ShardedSecureMemory::publish_metrics(StatRegistry& registry,
                                          const std::string& prefix) const
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  publish_cells(all_cells(), registry, prefix);
  for (unsigned s = 0; s < num_shards_; ++s) {
    shards_[s].engine->publish_metrics(
        registry, metric_path({prefix, "shard" + std::to_string(s)}));
  }
}

// Lock-free by contract: a shard engine's attach_trace is two atomic
// stores, and the engine pointer never changes after construction, so
// attaching takes no shard lock and never waits behind a busy shard.
void ShardedSecureMemory::attach_trace(TraceRing* ring)
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  trace_.store(ring, std::memory_order_release);
  for (unsigned s = 0; s < num_shards_; ++s)
    shards_[s].engine->attach_trace(ring, static_cast<std::uint16_t>(s));
}

void ShardedSecureMemory::break_shard_chains() {
  for (unsigned s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    const SeqWriteLock lock(shard.mu);
    shard.engine->break_chain();
  }
}

Status ShardedSecureMemory::save(std::ostream& out) {
  out.write(kShardMagic, sizeof(kShardMagic));
  write_u64(out, num_shards_);
  write_u64(out, granule_blocks_);
  // Straight into the caller's stream, shard by shard, each under its
  // own lock: the image is memory-bandwidth bound, so staging shards in
  // private buffers would only add a whole-image copy. Shards not yet
  // reached keep serving their callers.
  Status folded = Status::kOk;
  for (unsigned s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    const SeqWriteLock lock(shard.mu);
    folded = worse(folded, shard.engine->save(out));
  }
  // Shards saved before a stream failure aligned their chains on bytes
  // that never persisted as a container. Break every chain so the next
  // save_delta falls back to full images instead of sealing deltas
  // nothing can apply.
  if (!status_ok(folded)) break_shard_chains();
  return folded;
}

// Stage-then-commit, mirroring write_bytes' all-or-nothing protocol.
// Staging fully validates every shard's image or delta — sealed-root
// check, command MAC, base seal, command-stream validation, the tree
// paths a delta rewrites — against staging storage; the first bad shard
// aborts with the region EXACTLY as it was. Commit cannot fail, bar
// commit_delta's defense-in-depth verdict.
//
// snapshot_mu_ (the delta payload buffer) first, then every shard lock
// in table order, all held to the last commit (runtime lock set —
// outside static analysis, TSan-covered): a restore must be atomic
// against every concurrent operation.
bool ShardedSecureMemory::restore_container(std::istream& in,
                                            SnapshotTiming* timing,
                                            bool accept_delta)
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  const auto t0 = std::chrono::steady_clock::now();
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  const bool full = is_magic(magic, kShardMagic);
  const bool delta = accept_delta && is_magic(magic, kShardDeltaMagic);
  if (!in || !(full || delta) || read_u64(in) != num_shards_ ||
      read_u64(in) != granule_blocks_)
    return reject_restore({}, {}, 0, accept_delta);

  const MutexLock region(snapshot_mu_);
  const AllShards all = lock_all_shards();
  const std::span<SecureMemory* const> engines = all.engines;

  // Staged deltas point into the payload buffer, so it outlives the
  // last commit; the delta stager decides whether it is recycled.
  bool keep_payload = true;
  struct Release {
    std::vector<char>& buffer;
    const bool& keep;
    ~Release() {
      if (!keep) std::vector<char>().swap(buffer);
    }
  } release{delta_payload_, keep_payload};
  std::vector<std::optional<SecureMemory::StagedImage>> staged(num_shards_);
  const std::optional<unsigned> bad =
      full ? stage_full_container(in, engines, staged)
           : stage_delta_container(in, engines, staged, keep_payload);
  if (bad) return reject_restore(engines, staged, *bad, accept_delta);

  // Commit touches only per-shard state (counter decode, tree leaves,
  // shadow counters, arena parking), so it runs shard-parallel — on
  // this thread alone if another job holds the pool, since that job may
  // be waiting for one of the locks held here.
  const auto t1 = std::chrono::steady_clock::now();
  std::vector<char> commit_failed(num_shards_, 0);
  pool_.run(num_shards_, [&engines, &staged, &commit_failed](unsigned s) {
    if (!engines[s]->commit_image(std::move(*staged[s]))) commit_failed[s] = 1;
  });
  if (std::find(commit_failed.begin(), commit_failed.end(), 1) !=
      commit_failed.end()) {
    // commit_delta's defense-in-depth verdict fired (a base-seal
    // collision — cryptographically negligible): that shard wiped
    // itself and traced the rejection, so the region is part new, part
    // zeroed. Wipe the rest as well, as the plain engine wipes its
    // whole region: all zeros, never a half-applied state.
    pool_.run(num_shards_, [&engines, &commit_failed](unsigned s) {
      if (!commit_failed[s]) engines[s]->wipe_to_zeros();
    });
    return false;
  }
  if (timing) {
    timing->stage_s = seconds_between(t0, t1);
    timing->commit_s = seconds_between(t1, std::chrono::steady_clock::now());
  }
  return true;
}

bool ShardedSecureMemory::reject_restore(
    std::span<SecureMemory* const> engines,
    std::span<std::optional<SecureMemory::StagedImage>> staged,
    unsigned shard, bool accept_delta) {
  // Shards that did stage hand their storage back, so the next restore
  // neither re-allocates nor re-faults it.
  for (std::size_t k = 0; k < staged.size(); ++k)
    if (staged[k]) engines[k]->discard_image(std::move(*staged[k]));
  if (accept_delta) metrics_.add(MetricId::kDeltaRejects);
  trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0, shard);
  return false;
}

// Each shard's image stages straight off the caller's stream into that
// engine's recycled staging storage: a bulk read first would only add a
// whole-image copy.
std::optional<unsigned> ShardedSecureMemory::stage_full_container(
    std::istream& in, std::span<SecureMemory* const> engines,
    std::span<std::optional<SecureMemory::StagedImage>> staged) {
  for (unsigned s = 0; s < num_shards_; ++s) {
    staged[s] = engines[s]->stage_image(in, /*accept_delta=*/false);
    if (!staged[s]) return s;
  }
  return std::nullopt;
}

Status ShardedSecureMemory::save_delta(std::ostream& out) {
  // Per-shard deltas are variable-sized (and a broken-chain shard falls
  // back to its full image), so the container needs a length table
  // ahead of the payloads — every shard therefore serializes into its
  // own slice buffer, filled shard-parallel. The buffers are the
  // container's and recycled across calls (snapshot_mu_, taken before
  // any shard lock, guards them), so a steady delta chain writes into
  // storage it already has.
  const MutexLock buffers(snapshot_mu_);
  std::vector<std::vector<char>>& images = delta_slices_;
  std::vector<Status> statuses(num_shards_, Status::kOk);
  pool_.run(num_shards_, [this, &images, &statuses](unsigned s) {
    Shard& shard = shards_[s];
    const SeqWriteLock lock(shard.mu);
    images[s].clear();
    VectorSink sink(images[s]);
    std::ostream shard_out(&sink);
    statuses[s] = shard.engine->save_delta(shard_out);
  });

  out.write(kShardDeltaMagic, sizeof(kShardDeltaMagic));
  write_u64(out, num_shards_);
  write_u64(out, granule_blocks_);
  for (unsigned s = 0; s < num_shards_; ++s) write_u64(out, images[s].size());
  Status folded = Status::kOk;
  for (unsigned s = 0; s < num_shards_; ++s) {
    folded = worse(folded, statuses[s]);
    out.write(images[s].data(),
              static_cast<std::streamsize>(images[s].size()));
  }
  // A full fallback slice holds a whole shard image; recycling its
  // buffer would park that much memory for the small deltas that follow.
  for (std::vector<char>& image : images) {
    if (image.size() >= 8 && is_magic(image.data(), delta::kImageMagic))
      std::vector<char>().swap(image);
  }
  // The shard engines aligned their chains into the private buffers; if
  // the container-level write then failed, those bases describe an image
  // that never persisted. Break the chains so the next save_delta falls
  // back to a full image instead of sealing deltas nothing can apply.
  out.flush();
  if (!out) {
    break_shard_chains();
    folded = worse(folded, Status::kSnapshotIoError);
  }
  return folded;
}

std::optional<unsigned> ShardedSecureMemory::stage_delta_container(
    std::istream& in, std::span<SecureMemory* const> engines,
    std::span<std::optional<SecureMemory::StagedImage>> staged,
    bool& keep_payload) SECMEM_REQUIRES(snapshot_mu_) {
  // Length table. Each slice must at least hold a magic and can never
  // exceed slice_cap_ — a hostile table must not size the bulk read.
  std::vector<std::uint64_t> lengths(num_shards_);
  std::uint64_t total = 0;
  for (unsigned s = 0; s < num_shards_; ++s) {
    lengths[s] = read_u64(in);
    if (lengths[s] < 8 || lengths[s] > slice_cap_) return 0;
    total += lengths[s];
  }
  if (!in) return 0;

  // One bulk read, sliced by the length table. Unlike the full path,
  // which stages straight off the stream, the slices are variable-sized
  // and staged shard-parallel: a stager that read short would desync
  // every following shard's cut, so each one gets a bounded slice.
  // Delta slices are verified and parsed in place in the payload
  // buffer — the only copy of a delta on this side.
  //
  // The buffer is recycled only when every slice is a delta: a full
  // fallback slice (or a short read after a hostile length table) sized
  // it like whole shard images, which the small deltas that follow
  // would leave parked.
  keep_payload = false;
  // Grow-only, so reuse never re-zeroes bytes the read overwrites.
  if (delta_payload_.size() < total)
    delta_payload_.resize(static_cast<std::size_t>(total));
  in.read(delta_payload_.data(), static_cast<std::streamsize>(total));
  if (!in || static_cast<std::uint64_t>(in.gcount()) != total) return 0;
  const char* const payload = delta_payload_.data();
  std::vector<std::size_t> offsets(num_shards_, 0);
  for (unsigned s = 1; s < num_shards_; ++s)
    offsets[s] = offsets[s - 1] + static_cast<std::size_t>(lengths[s - 1]);
  keep_payload = true;
  for (unsigned s = 0; s < num_shards_; ++s) {
    if (!is_magic(payload + offsets[s], delta::kDeltaMagic))
      keep_payload = false;
  }

  // Stage every slice: a delta against that shard's current chain, or a
  // full fallback image.
  pool_.run(num_shards_,
            [payload, &offsets, &lengths, engines, staged](unsigned s) {
              staged[s] = engines[s]->stage_image(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(payload + offsets[s]),
                  static_cast<std::size_t>(lengths[s])));
            });
  for (unsigned s = 0; s < num_shards_; ++s)
    if (!staged[s]) return s;
  return std::nullopt;
}

std::uint64_t ShardedSecureMemory::delta_buffer_bytes() const {
  const MutexLock buffers(snapshot_mu_);
  std::uint64_t bytes = delta_payload_.capacity();
  for (const std::vector<char>& image : delta_slices_)
    bytes += image.capacity();
  return bytes;
}

std::uint64_t ShardedSecureMemory::dirty_granules() const noexcept
    SECMEM_NO_THREAD_SAFETY_ANALYSIS {
  // Relaxed-atomic bitmap popcounts — lock-free by contract, like
  // stats(); the sum is monotonic per shard, not a cross-shard snapshot.
  std::uint64_t total = 0;
  for (unsigned s = 0; s < num_shards_; ++s)
    total += shards_[s].engine->dirty_granules();
  return total;
}

}  // namespace secmem
