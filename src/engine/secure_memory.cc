#include "engine/secure_memory.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <unordered_map>

#include "common/bitops.h"
#include "common/ct.h"
#include "common/rng.h"
#include "counters/delta_counter.h"
#include "counters/dual_length_delta.h"
#include "counters/generic_delta.h"
#include "counters/monolithic.h"
#include "counters/split_counter.h"
#include "engine/byte_range.h"

namespace secmem {

namespace {
/// Derive independent working keys from the master secret.
struct DerivedKeys {
  Aes128::Key data_key;
  CwMacKey mac_key;
  CwMacKey tree_key;
  CwMacKey seal_key;  ///< snapshot-chain seals + delta command MACs
};

DerivedKeys derive_keys(std::uint64_t master) {
  DerivedKeys keys{};
  std::uint64_t state = master;
  auto next_key = [&state](Aes128::Key& k) {
    for (int half = 0; half < 2; ++half)
      store_le64(k.data() + 8 * half, splitmix64(state));
  };
  next_key(keys.data_key);
  keys.mac_key.hash_key = splitmix64(state);
  next_key(keys.mac_key.pad_key);
  keys.tree_key.hash_key = splitmix64(state);
  next_key(keys.tree_key.pad_key);
  // Appended to the derivation chain LAST: the keys above must stay
  // bit-identical to the pre-delta derivation so full save() images and
  // all on-DIMM state are unchanged by the delta-snapshot feature.
  keys.seal_key.hash_key = splitmix64(state);
  next_key(keys.seal_key.pad_key);
  return keys;
}

/// Optional wall-clock sampling for the latency histograms. Costs two
/// steady_clock reads per operation, so it is gated on config.time_ops
/// and compiles down to a single branch when disabled. `Cell` carries the
/// caller's constness (MetricsCell: const = shared, atomic sample).
template <class Cell>
class OpTimer {
 public:
  OpTimer(bool enabled, Cell& cell, EngineHistId hist) noexcept
      : cell_(cell), hist_(hist), enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~OpTimer() {
    if (!enabled_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    cell_.sample(hist_, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  }

 private:
  Cell& cell_;
  EngineHistId hist_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

std::unique_ptr<CounterScheme> SecureMemory::make_scheme(
    const SecureMemoryConfig& config) {
  if (config.generic_delta_bits != 0) {
    return std::make_unique<GenericDeltaCounters>(config.size_bytes / 64,
                                                  config.generic_delta_bits);
  }
  return make_counter_scheme(config.scheme, config.size_bytes / 64);
}

LayoutParams SecureMemory::layout_params(const SecureMemoryConfig& config,
                                         const CounterScheme& scheme) {
  LayoutParams params;
  params.data_bytes = config.size_bytes;
  params.blocks_per_counter_line = scheme.blocks_per_storage_line();
  params.onchip_bytes = config.onchip_bytes;
  params.separate_macs = config.mac_placement == MacPlacement::kSeparate;
  params.counter_bits_per_block = scheme.bits_per_block();
  return params;
}

SecureMemory::SecureMemory(const SecureMemoryConfig& config)
    : config_(config),
      scheme_(make_scheme(config)),
      layout_(layout_params(config, *scheme_)),
      keystream_(derive_keys(config.master_key).data_key),
      mac_(derive_keys(config.master_key).mac_key),
      seal_mac_(derive_keys(config.master_key).seal_key),
      tree_(layout_.tree(), derive_keys(config.master_key).tree_key),
      tree_cache_(tree_, TreeCacheConfig{config.tree_cache_kb}, &metrics_),
      ciphertext_(layout_.num_blocks()),
      lanes_(layout_.num_blocks()),
      counter_store_(layout_.num_counter_lines() * 64, 0),
      shadow_ctr_(layout_.num_blocks(), 0) {
  assert(config.size_bytes % 64 == 0 && config.size_bytes > 0);
  if (config.mac_placement == MacPlacement::kSeparate)
    macs_.resize(layout_.num_blocks(), 0);

  // Delta granule: whole re-encryption groups AND whole counter lines,
  // so a granule's ciphertext/lane/MAC/counter payload is
  // self-contained. Allocated before the first store below — every
  // store marks its granule dirty.
  granule_blocks_ = std::lcm<std::uint64_t>(scheme_->blocks_per_group(),
                                            scheme_->blocks_per_storage_line());
  num_granules_ =
      (layout_.num_blocks() + granule_blocks_ - 1) / granule_blocks_;
  dirty_word_count_ = (num_granules_ + 63) / 64;
  dirty_words_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(dirty_word_count_);
  delta_cmd_bound_ = delta::max_stream_bytes(delta_geometry());

  // Initialize every block as encrypted zeros under counter 0, so reads
  // before the first write still verify.
  reset_all_blocks({}, 0);
}

void SecureMemory::store_block(std::uint64_t block, const DataBlock& plaintext,
                               std::uint64_t counter) {
  // One AES call yields the keystream and the MAC pad. Bonsai binding:
  // the pad is bound to (address, counter), so the data MAC covers
  // (address, counter, ciphertext) and replaying stale data requires
  // replaying a stale counter — which the tree catches.
  DataBlock ct;
  const std::uint64_t pad = mac_.keystream_and_pad(
      keystream_, layout_.block_addr(block), counter, ct);
  for (std::size_t i = 0; i < kBlockBytes; ++i) ct[i] ^= plaintext[i];
  const std::uint64_t tag = mac_.compute_with_pad(pad, ct);
  ciphertext_[block] = ct;
  if (config_.mac_placement == MacPlacement::kEccLane) {
    lanes_[block] = mac_ecc_.pack_lane(tag, ct);
  } else {
    macs_[block] = tag;
    lanes_[block] = secded_.encode(ct);
  }
  shadow_ctr_[block] = counter;
  mark_dirty(block);
}

void SecureMemory::store_blocks(std::span<const std::uint64_t> blocks,
                                std::span<const DataBlock> plaintexts,
                                std::span<const std::uint64_t> counters) {
  const std::size_t n = blocks.size();
  assert(plaintexts.size() == n && counters.size() == n);
  std::vector<std::uint64_t>& addrs = scratch_.store_addrs;
  addrs.resize(n);
  for (std::size_t i = 0; i < n; ++i) addrs[i] = layout_.block_addr(blocks[i]);
  std::vector<DataBlock>& cts = scratch_.cts;
  cts.assign(plaintexts.begin(), plaintexts.end());
  keystream_.crypt_batch(addrs, counters, cts);
  std::vector<std::uint64_t>& tags = scratch_.tags;
  tags.resize(n);
  mac_.compute_batch(addrs, counters, cts, tags);
  // Lane packing runs batched too (one codec call per store batch), then
  // scatters to each block's slot. Bit-identical to per-block pack_lane/
  // encode — see the batch codec contracts in src/ecc/.
  std::vector<EccLane>& packed = scratch_.packed;
  packed.resize(n);
  if (config_.mac_placement == MacPlacement::kEccLane) {
    mac_ecc_.pack_lane_batch(tags, cts, packed);
  } else {
    secded_.encode_batch(cts, packed);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b = blocks[i];
    ciphertext_[b] = cts[i];
    lanes_[b] = packed[i];
    if (config_.mac_placement != MacPlacement::kEccLane) macs_[b] = tags[i];
    shadow_ctr_[b] = counters[i];
    mark_dirty(b);
  }
}

void SecureMemory::reset_all_blocks(std::span<const DataBlock> plaintexts,
                                    std::uint64_t counter) {
  assert(plaintexts.empty() || plaintexts.size() == layout_.num_blocks());
  constexpr std::size_t kChunk = 128;
  std::array<std::uint64_t, kChunk> blocks;
  std::array<std::uint64_t, kChunk> counters;
  counters.fill(counter);
  const std::vector<DataBlock> zeros(plaintexts.empty() ? kChunk : 0);
  for (std::uint64_t base = 0; base < layout_.num_blocks(); base += kChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, layout_.num_blocks() - base));
    for (std::size_t i = 0; i < n; ++i) blocks[i] = base + i;
    store_blocks({blocks.data(), n},
                 plaintexts.empty()
                     ? std::span<const DataBlock>(zeros.data(), n)
                     : plaintexts.subspan(base, n),
                 {counters.data(), n});
  }
  for (std::uint64_t line = 0; line < layout_.num_counter_lines(); ++line)
    sync_counter_line(line);
}

void SecureMemory::sync_counter_line(std::uint64_t line) {
  std::span<std::uint8_t, 64> dest(counter_store_.data() + line * 64, 64);
  scheme_->serialize_line(line, dest);
  tree_cache_.update(line, dest);
}

// Always inlined, so the prefetches land in each read path's own body:
// GCC deems a function that holds nothing but prefetches free of side
// effects and deletes every call to it.
[[gnu::always_inline]] inline void SecureMemory::prefetch_block(
    std::uint64_t block, std::uint64_t line) const noexcept {
  const auto* ct = reinterpret_cast<const char*>(&ciphertext_[block]);
  __builtin_prefetch(ct);
  __builtin_prefetch(ct + kBlockBytes - 1);
  __builtin_prefetch(&lanes_[block]);
  if (!macs_.empty()) __builtin_prefetch(&macs_[block]);
  const char* counters =
      reinterpret_cast<const char*>(counter_store_.data()) + line * 64;
  __builtin_prefetch(counters);
  __builtin_prefetch(counters + 63);
}

bool SecureMemory::verify_counter_line(std::uint64_t line) {
  const std::span<const std::uint8_t, 64> line_bytes(
      counter_store_.data() + line * 64, 64);
  return tree_cache_.verify(line, line_bytes);
}

std::uint64_t SecureMemory::reencrypt_group(std::uint64_t group,
                                            std::uint64_t skip_block,
                                            std::uint64_t new_counter) {
  const unsigned group_blocks = scheme_->blocks_per_group();
  const std::uint64_t first = group * group_blocks;
  const std::uint64_t end =
      std::min<std::uint64_t>(first + group_blocks, layout_.num_blocks());

  // Gather the group's stale ciphertexts and old counters, run
  // ONE crypt_batch decrypt over the 8-wide AES kernel, then re-store the
  // lot through store_blocks (batched encrypt + compute_batch MACs +
  // pack_lane_batch/encode_batch lanes).
  const std::size_t cap = static_cast<std::size_t>(end - first);
  std::vector<std::uint64_t>& blocks = scratch_.blocks;
  std::vector<std::uint64_t>& addrs = scratch_.addrs;
  std::vector<std::uint64_t>& old_ctrs = scratch_.old_ctrs;
  std::vector<DataBlock>& plains = scratch_.plains;
  blocks.clear();
  addrs.clear();
  old_ctrs.clear();
  plains.clear();
  blocks.reserve(cap);
  addrs.reserve(cap);
  old_ctrs.reserve(cap);
  plains.reserve(cap);
  for (std::uint64_t b = first; b < end; ++b) {
    if (b == skip_block) continue;
    blocks.push_back(b);
    addrs.push_back(layout_.block_addr(b));
    old_ctrs.push_back(shadow_ctr_[b]);
    plains.push_back(ciphertext_[b]);
  }
  keystream_.crypt_batch(addrs, old_ctrs, plains);  // CTR: decrypt == crypt
  std::vector<std::uint64_t>& new_ctrs = scratch_.new_ctrs;
  new_ctrs.assign(blocks.size(), new_counter);
  store_blocks(blocks, plains, new_ctrs);
  return blocks.size();
}

Status SecureMemory::write_block(std::uint64_t block,
                                 const DataBlock& plaintext) {
  if (block >= layout_.num_blocks())
    throw std::out_of_range("SecureMemory::write_block: block " +
                            std::to_string(block) + " out of range");
  const OpTimer timer(config_.time_ops, metrics_,
                      EngineHistId::kWriteLatencyNs);
  metrics_.add(MetricId::kWrites);
  const WriteOutcome outcome = scheme_->on_write(block);

  if (outcome.event == CounterEvent::kReencrypt) {
    // Re-encrypt every other block in the group under the new common
    // counter (paper Fig 5a) in one batched pass; the counter-line/tree
    // sync below covers the whole group (one update_leaf per group).
    metrics_.add(MetricId::kGroupReencryptions);
    const std::uint64_t rewritten =
        reencrypt_group(outcome.group, block, outcome.counter);
    metrics_.sample(EngineHistId::kReencryptedBlocks, rewritten);
    trace(TraceEvent::Kind::kReencrypt, Status::kOk, block);
  }

  store_block(block, plaintext, outcome.counter);
  sync_counter_line(scheme_->storage_line_of(block));
  trace(TraceEvent::Kind::kWrite, Status::kOk, block);
  return Status::kOk;
}

ReadResult SecureMemory::read_block(std::uint64_t block) {
  if (block >= layout_.num_blocks())
    throw std::out_of_range("SecureMemory::read_block: block " +
                            std::to_string(block) + " out of range");
  const OpTimer timer(config_.time_ops, metrics_,
                      EngineHistId::kReadLatencyNs);
  const std::uint64_t line = scheme_->storage_line_of(block);
  prefetch_block(block, line);
  // 1. Authenticate the stored counter line against the Bonsai tree
  // (through the verified frontier: walks truncate at cached ancestors).
  // Verified: the stored representation is authentic, so the scheme's
  // decoded value is the true counter.
  ReadResult result{ReadStatus::kCounterTampered, {}, 0};
  if (verify_counter_line(line)) {
    const std::uint64_t counter = scheme_->read_counter(block);
    DataBlock keystream;
    const std::uint64_t pad = mac_.keystream_and_pad(
        keystream_, layout_.block_addr(block), counter, keystream);
    result = decrypt_verified(block, pad, keystream);
  }
  count_read(*this, result, block);
  return result;
}

ReadResult SecureMemory::decrypt_verified(std::uint64_t block,
                                          std::uint64_t pad,
                                          const DataBlock& keystream) const {
  ReadResult result{ReadStatus::kOk, {}, 0};
  DataBlock ct = ciphertext_[block];

  if (config_.mac_placement == MacPlacement::kEccLane) {
    // 2a. Unpack the MAC lane; its own 7-bit Hamming code repairs
    // single-bit lane faults (paper §3.3).
    const auto unpacked = mac_ecc_.unpack_lane(lanes_[block]);
    if (unpacked.status == MacEccCodec::MacStatus::kUncorrectable) {
      result.status = ReadStatus::kIntegrityViolation;
      return result;
    }
    // The pad is hoisted by the caller: flip-and-check may evaluate
    // >100k candidates under this one (addr, counter).
    if (!mac_.verify_with_pad(pad, ct, unpacked.mac)) {
      // 3a. Flip-and-check (paper §3.4), incremental: one full hash of
      // the block, then each candidate trial is a precomputed GF(2^64)
      // delta XORed in — same search order and trial counts as the
      // generic brute force, a fraction of the work per trial.
      const CorrectionResult fix =
          corrector_.correct_incremental(ct, mac_, pad, unpacked.mac);
      result.mac_evaluations = fix.mac_evaluations;
      if (fix.status == CorrectionStatus::kUncorrectable) {
        result.status = ReadStatus::kIntegrityViolation;
        return result;
      }
      ct = fix.data;
      result.status = ReadStatus::kCorrectedData;
    } else if (unpacked.status == MacEccCodec::MacStatus::kCorrectedSingle) {
      result.status = ReadStatus::kCorrectedMacField;
    }
  } else {
    // 2b. Conventional path: SEC-DED per word, then MAC from its region.
    const auto decoded = secded_.decode(ct, lanes_[block]);
    if (decoded.any_uncorrectable) {
      result.status = ReadStatus::kIntegrityViolation;
      return result;
    }
    ct = decoded.data;
    if (!mac_.verify_with_pad(pad, ct, macs_[block])) {
      result.status = ReadStatus::kIntegrityViolation;
      return result;
    }
    if (decoded.any_corrected) result.status = ReadStatus::kCorrectedWord;
  }

  // 4. Decrypt — only here, past every verdict above: each rejection
  // returns before the keystream touches the data, so a failed read
  // carries all-zero data even though the keystream already exists.
  for (std::size_t i = 0; i < kBlockBytes; ++i)
    result.data[i] = ct[i] ^ keystream[i];
  return result;
}

template <class Self>
void SecureMemory::count_read(Self& self, const ReadResult& result,
                              std::uint64_t block) noexcept {
  auto& metrics = self.metrics_;
  metrics.add(MetricId::kReads);
  if (result.mac_evaluations != 0) {
    metrics.add(MetricId::kMacEvaluations, result.mac_evaluations);
    metrics.sample(EngineHistId::kMacEvalsPerCorrection,
                   result.mac_evaluations);
  }
  switch (result.status) {
    case ReadStatus::kOk: break;
    case ReadStatus::kCorrectedMacField:
      metrics.add(MetricId::kCorrectedMacField);
      break;
    case ReadStatus::kCorrectedData:
      metrics.add(MetricId::kCorrectedData);
      break;
    case ReadStatus::kCorrectedWord:
      metrics.add(MetricId::kCorrectedWord);
      break;
    case ReadStatus::kIntegrityViolation:
      metrics.add(MetricId::kIntegrityViolations);
      break;
    case ReadStatus::kCounterTampered:
      metrics.add(MetricId::kCounterTampers);
      break;
    case ReadStatus::kSnapshotIoError:  // never a read outcome; fail closed
      metrics.add(MetricId::kIntegrityViolations);
      break;
  }
  self.trace(TraceEvent::Kind::kRead, result.status, block);
}

namespace {
/// Every Nth non-resident shared read declines to the exclusive path so
/// verify() can install the line into the verified frontier. 8 keeps the
/// steady state overwhelmingly shared while still warming a shifting
/// working set within a few touches per line.
constexpr std::uint64_t kSharedProbePulse = 8;
}  // namespace

bool SecureMemory::pulse_declines(bool resident) const noexcept {
  if (resident ||
      shared_cold_reads_.fetch_add(1, std::memory_order_relaxed) %
              kSharedProbePulse !=
          kSharedProbePulse - 1)
    return false;
  metrics_.add(MetricId::kSharedReadDeclines);
  return true;
}

std::optional<ReadResult> SecureMemory::read_block_shared(
    std::uint64_t block) const {
  if (block >= layout_.num_blocks())
    throw std::out_of_range("SecureMemory::read_block_shared: block " +
                            std::to_string(block) + " out of range");
  const OpTimer timer(config_.time_ops, metrics_,
                      EngineHistId::kReadLatencyNs);
  // 1. Authenticate the stored counter line through the read-side probe
  // (no fills, no LRU reordering — see VerifiedTreeCache::probe).
  const std::uint64_t line = scheme_->storage_line_of(block);
  prefetch_block(block, line);
  bool resident = false;
  const bool line_ok = tree_cache_.probe(
      line,
      BonsaiTree::LineView(counter_store_.data() + line * 64, 64),
      resident);
  // Promotion pulse: bounce to the exclusive path, whose verify() may
  // install the line. Nothing is accounted — the caller's retry does the
  // read (and the books) for real.
  if (pulse_declines(resident)) return std::nullopt;

  // 2..4: the same const tail as read_block().
  ReadResult result{ReadStatus::kCounterTampered, {}, 0};
  if (line_ok) {
    const std::uint64_t counter = scheme_->read_counter(block);
    DataBlock keystream;
    const std::uint64_t pad = mac_.keystream_and_pad(
        keystream_, layout_.block_addr(block), counter, keystream);
    result = decrypt_verified(block, pad, keystream);
  }
  metrics_.add(MetricId::kSharedReads);
  count_read(*this, result, block);
  return result;
}

void SecureMemory::read_blocks_shared(std::span<const std::uint64_t> blocks,
                                      std::span<ReadResult> results,
                                      std::vector<std::uint32_t>& declined)
    const {
  assert(results.size() == blocks.size());
  for (const std::uint64_t block : blocks)
    prefetch_block(block, scheme_->storage_line_of(block));
  // Each distinct counter line is probed once — under the shared lock the
  // line bytes cannot change within the batch, so one read-side verify
  // per line is observationally equivalent to one per block. The line
  // table is a flat array with linear scan for the common case (shard
  // runs of a few dozen blocks — where one node-based map allocation
  // per distinct line costs more than every lookup it saves) and an
  // unordered_map above that.
  struct LineState {
    std::uint64_t line;
    bool ok;
    bool resident;
  };
  const bool flat = blocks.size() <= 256;
  std::vector<LineState> line_vec;
  std::unordered_map<std::uint64_t, std::pair<bool, bool>> line_map;
  if (flat) line_vec.reserve(blocks.size());
  auto line_state = [&](std::uint64_t line) -> std::pair<bool, bool> {
    if (flat) {
      for (const LineState& ls : line_vec)
        if (ls.line == line) return {ls.ok, ls.resident};
    } else if (const auto it = line_map.find(line); it != line_map.end()) {
      return it->second;
    }
    bool resident = false;
    const bool ok = tree_cache_.probe(
        line, BonsaiTree::LineView(counter_store_.data() + line * 64, 64),
        resident);
    if (flat)
      line_vec.push_back({line, ok, resident});
    else
      line_map.emplace(line, std::make_pair(ok, resident));
    return {ok, resident};
  };

  // MAC pads and keystreams for the whole batch through the 8-wide AES
  // kernel; one allocation carries all three lanes. decrypt_verified
  // applies a keystream only once its block's MAC verdict stands.
  const std::size_t n = blocks.size();
  std::vector<std::uint64_t> lanes_buf(3 * n);
  const std::span<std::uint64_t> addrs(lanes_buf.data(), n);
  const std::span<std::uint64_t> counters(lanes_buf.data() + n, n);
  const std::span<std::uint64_t> pads(lanes_buf.data() + 2 * n, n);
  for (std::size_t i = 0; i < n; ++i) {
    addrs[i] = layout_.block_addr(blocks[i]);
    counters[i] = scheme_->read_counter(blocks[i]);
  }
  mac_.pad_batch(addrs, counters, pads);
  std::vector<DataBlock> keystreams(n);
  keystream_.generate_batch(addrs, counters, keystreams);

  // Per block, preserving read_block_shared's ordering exactly —
  // promotion pulse first (each cold-line read ticks the pulse counter,
  // every kSharedProbePulse-th declines), then the tamper verdict, then
  // the verify-and-decrypt tail with the batch's pad.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t block = blocks[i];
    const auto [line_ok, resident] =
        line_state(scheme_->storage_line_of(block));
    if (pulse_declines(resident)) {
      declined.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    results[i] = line_ok ? decrypt_verified(block, pads[i], keystreams[i])
                         : ReadResult{ReadStatus::kCounterTampered, {}, 0};
    metrics_.add(MetricId::kSharedReads);
    count_read(*this, results[i], block);
  }
}

std::vector<ReadResult> SecureMemory::read_blocks(
    std::span<const std::uint64_t> blocks) {
  for (const std::uint64_t block : blocks)
    if (block >= layout_.num_blocks())
      throw std::out_of_range("SecureMemory::read_blocks: block " +
                              std::to_string(block) + " out of range");
  // The shared batch, then the exclusive read for every index the
  // promotion pulse declined — what the sharded engine does per shard.
  std::vector<ReadResult> results(blocks.size());
  std::vector<std::uint32_t> declined;
  read_blocks_shared(blocks, results, declined);
  for (const std::uint32_t d : declined) results[d] = read_block(blocks[d]);
  return results;
}

Status SecureMemory::write_blocks(std::span<const BlockWrite> writes) {
  for (const BlockWrite& w : writes)
    if (w.block >= layout_.num_blocks())
      throw std::out_of_range("SecureMemory::write_blocks: block " +
                              std::to_string(w.block) + " out of range");

  // Counter-scheme events are processed strictly in request order;
  // stores buffer up so the crypto runs batched, and flush before any
  // group re-encryption so it observes exactly the ciphertexts and
  // shadow counters the sequential semantics would.
  std::vector<std::uint64_t> pend_blocks, pend_counters;
  std::vector<DataBlock> pend_plains;
  std::vector<std::uint64_t> dirty_lines;
  auto flush = [&] {
    if (pend_blocks.empty()) return;
    store_blocks(pend_blocks, pend_plains, pend_counters);
    pend_blocks.clear();
    pend_plains.clear();
    pend_counters.clear();
  };

  for (const BlockWrite& w : writes) {
    metrics_.add(MetricId::kWrites);
    const WriteOutcome outcome = scheme_->on_write(w.block);
    if (outcome.event == CounterEvent::kReencrypt) {
      flush();
      metrics_.add(MetricId::kGroupReencryptions);
      const std::uint64_t rewritten =
          reencrypt_group(outcome.group, w.block, outcome.counter);
      metrics_.sample(EngineHistId::kReencryptedBlocks, rewritten);
      trace(TraceEvent::Kind::kReencrypt, Status::kOk, w.block);
    }
    pend_blocks.push_back(w.block);
    pend_plains.push_back(w.data);
    pend_counters.push_back(outcome.counter);
    dirty_lines.push_back(scheme_->storage_line_of(w.block));
    trace(TraceEvent::Kind::kWrite, Status::kOk, w.block);
  }
  flush();

  // One counter-line/tree sync per dirty line; the scheme state already
  // reflects every write, so the serialized lines and tree paths match
  // what per-write syncing would have left behind.
  std::sort(dirty_lines.begin(), dirty_lines.end());
  dirty_lines.erase(std::unique(dirty_lines.begin(), dirty_lines.end()),
                    dirty_lines.end());
  for (const std::uint64_t line : dirty_lines) sync_counter_line(line);
  return Status::kOk;
}

ScrubStatus SecureMemory::scrub_block(std::uint64_t block, bool deep) {
  if (block >= layout_.num_blocks())
    throw std::out_of_range("SecureMemory::scrub_block: block " +
                            std::to_string(block) + " out of range");
  metrics_.add(MetricId::kScrubbedBlocks);
  if (!deep && config_.mac_placement == MacPlacement::kEccLane) {
    // Quick scan (paper §3.3): ciphertext parity vs the scrub bit, plus
    // the MAC field's own Hamming syndrome — two parity-class checks, no
    // MAC computation.
    const std::uint64_t lane = load_le64(lanes_[block].data());
    if (mac_ecc_.scrub_ok(lane, ciphertext_[block]) &&
        mac_ecc_.unpack(lane).status == MacEccCodec::MacStatus::kOk) {
      return ScrubStatus::kClean;
    }
  } else if (!deep) {
    // Conventional lane: per-word syndromes are the quick check.
    const auto decoded = secded_.decode(ciphertext_[block], lanes_[block]);
    if (!decoded.any_corrected && !decoded.any_uncorrectable)
      return ScrubStatus::kClean;
  }

  // Something looks off (or deep scrub requested): run the full verified
  // read and heal the backing store from its corrected output.
  const ReadResult result = read_block(block);
  ScrubStatus scrubbed = ScrubStatus::kUncorrectable;
  switch (result.status) {
    case ReadStatus::kOk:
      scrubbed = ScrubStatus::kClean;
      break;
    case ReadStatus::kCorrectedMacField:
    case ReadStatus::kCorrectedData:
    case ReadStatus::kCorrectedWord:
      // Re-encrypting under the *same* counter reproduces the correct
      // ciphertext + lane: the fault is scrubbed out of DRAM.
      store_block(block, result.data, shadow_ctr_[block]);
      metrics_.add(MetricId::kScrubRepairs);
      scrubbed = result.status == ReadStatus::kCorrectedMacField
                     ? ScrubStatus::kRepairedMacField
                     : ScrubStatus::kRepairedData;
      break;
    case ReadStatus::kCounterTampered:
      scrubbed = ScrubStatus::kCounterTampered;
      break;
    case ReadStatus::kIntegrityViolation:
    case ReadStatus::kSnapshotIoError:  // never a read outcome; fail closed
      scrubbed = ScrubStatus::kUncorrectable;
      break;
  }
  if (scrubbed == ScrubStatus::kUncorrectable ||
      scrubbed == ScrubStatus::kCounterTampered)
    metrics_.add(MetricId::kScrubUncorrectable);
  trace(TraceEvent::Kind::kScrub, to_status(scrubbed), block);
  return scrubbed;
}

ScrubReport SecureMemory::scrub_all(bool deep) {
  // Flush barrier: the sweep must observe off-chip truth, not trusted
  // resident copies — a latent fault in a tree node that happens to be
  // cached would otherwise be masked for the whole scan.
  tree_cache_.flush();
  ScrubReport report;
  for (std::uint64_t block = 0; block < layout_.num_blocks(); ++block) {
    ++report.scanned;
    switch (scrub_block(block, deep)) {
      case ScrubStatus::kClean: ++report.quick_clean; break;
      case ScrubStatus::kRepairedMacField: ++report.repaired_mac; break;
      case ScrubStatus::kRepairedData: ++report.repaired_data; break;
      case ScrubStatus::kUncorrectable: ++report.uncorrectable; break;
      case ScrubStatus::kCounterTampered: ++report.counter_tampered; break;
    }
  }
  return report;
}

namespace {
using delta::is_magic;
using delta::kDeltaMagic;
using delta::kImageMagic;
using delta::read_u64;
using delta::write_u64;

/// Delta image header past the magic: nine u64 fields — the four
/// geometry fields, base epoch, new epoch, base seal, command length,
/// command MAC.
constexpr std::size_t kDeltaFieldBytes = 9 * 8;

/// Domain constants for the snapshot-chain MACs (CwMac::compute_prf,
/// ≤56 bits). These MACs are nonce-FREE by construction: chain roots
/// repeat at every alignment point and epochs reset on restore, so the
/// data path's XOR-pad Carter-Wegman form — whose security dies with
/// the first reused (addr, counter) pad — must never be used here.
constexpr std::uint64_t kSealDomain = 0x5ea1'0000'0001ULL;
constexpr std::uint64_t kCmdMacDomain = 0x5ea1'0000'0002ULL;

// The contiguous vectors ARE the serialized layout: one bulk stream call
// per section depends on the element types packing without padding.
static_assert(sizeof(DataBlock) == kBlockBytes);
static_assert(sizeof(EccLane) == kEccLaneBytes);

/// MACs per endian-conversion chunk (64 KiB of stream traffic a flush).
constexpr std::size_t kMacChunk = 8192;

/// istream source over a borrowed byte slice — a full image inside a
/// sharded delta container stages off its cut of the bulk-read payload
/// without copying it. The const_cast is the std::streambuf get-area
/// API's; the get area is never written through.
class SpanSource final : public std::streambuf {
 public:
  explicit SpanSource(std::span<const std::uint8_t> bytes) {
    auto* p = reinterpret_cast<char*>(const_cast<std::uint8_t*>(bytes.data()));
    setg(p, p, p + bytes.size());
  }
};
}  // namespace

std::array<std::uint64_t, 4> SecureMemory::image_geometry() const noexcept {
  return {config_.size_bytes, static_cast<std::uint64_t>(config_.scheme),
          static_cast<std::uint64_t>(config_.mac_placement),
          config_.generic_delta_bits};
}

std::span<const std::uint8_t> SecureMemory::root_level(
    const BonsaiTree& tree) {
  std::vector<std::uint8_t>& root = scratch_.root_bytes;
  root.clear();
  const unsigned top = layout_.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout_.tree().nodes_at[top]; ++node) {
    const auto bytes = tree.read_node(top, node);
    root.insert(root.end(), bytes.begin(), bytes.end());
  }
  return root;
}

std::uint64_t SecureMemory::root_level_bytes() const noexcept {
  const unsigned top = layout_.tree().total_levels() - 1;
  return layout_.tree().nodes_at[top] * 64;
}

bool SecureMemory::verify_root_level(
    const BonsaiTree& tree, std::span<const std::uint8_t> expected) {
  const std::span<const std::uint8_t> root = root_level(tree);
  return root.size() == expected.size() &&
         ct_equal(root.data(), expected.data(), root.size());
}

std::uint64_t SecureMemory::image_bytes() const noexcept {
  return sizeof(kImageMagic) + 4 * 8 +
         layout_.num_blocks() * (kBlockBytes + kEccLaneBytes) +
         macs_.size() * 8 + counter_store_.size() + root_level_bytes();
}

std::uint64_t SecureMemory::max_image_bytes() const noexcept {
  return std::max<std::uint64_t>(
      image_bytes(), sizeof(kDeltaMagic) + kDeltaFieldBytes +
                         delta_cmd_bound_ + root_level_bytes());
}

Status SecureMemory::save(std::ostream& out) {
  // Flush barrier: write-back the deferred MAC propagation so the image
  // is bit-identical to what the eager path would persist.
  tree_cache_.flush();
  out.write(kImageMagic, sizeof(kImageMagic));
  for (const std::uint64_t field : image_geometry()) write_u64(out, field);

  // Off-chip state, exactly what sits on the (NV)DIMMs. Ciphertext and
  // lane vectors are contiguous and byte-identical to the per-element
  // layout (static_asserts above), so each section is one stream call;
  // the MAC words stream through the engine-owned chunk buffer with
  // store_le64 conversion.
  out.write(reinterpret_cast<const char*>(ciphertext_.data()),
            static_cast<std::streamsize>(ciphertext_.size() *
                                         sizeof(DataBlock)));
  out.write(reinterpret_cast<const char*>(lanes_.data()),
            static_cast<std::streamsize>(lanes_.size() * sizeof(EccLane)));
  if (!macs_.empty()) {
    std::vector<std::uint8_t>& buf = scratch_.io_bytes;
    buf.resize(std::min(macs_.size(), kMacChunk) * 8);
    for (std::size_t base = 0; base < macs_.size(); base += kMacChunk) {
      const std::size_t n = std::min(kMacChunk, macs_.size() - base);
      for (std::size_t i = 0; i < n; ++i)
        store_le64(buf.data() + 8 * i, macs_[base + i]);
      out.write(reinterpret_cast<const char*>(buf.data()),
                static_cast<std::streamsize>(8 * n));
    }
  }
  out.write(reinterpret_cast<const char*>(counter_store_.data()),
            static_cast<std::streamsize>(counter_store_.size()));

  // Sealed root snapshot: the on-chip root level of the tree (a handful
  // of nodes — never the bandwidth term).
  const std::span<const std::uint8_t> root = root_level(tree_);
  out.write(reinterpret_cast<const char*>(root.data()),
            static_cast<std::streamsize>(root.size()));
  // A full image is always a valid delta base — but only if it actually
  // persisted. On stream failure keep the previous alignment point (it
  // still describes the last image that made it out) and surface the
  // error; a silent kOk here would chain future deltas on a lost base.
  out.flush();
  if (!out) return Status::kSnapshotIoError;
  // Align so the next save_delta diffs against exactly what was just
  // persisted.
  align_chain();
  return Status::kOk;
}

bool SecureMemory::restore_image(std::istream& in, bool accept_delta) {
  std::optional<StagedImage> staged = stage_image(in, accept_delta);
  if (!staged) {
    if (accept_delta) metrics_.add(MetricId::kDeltaRejects);
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }
  return commit_image(std::move(*staged));
}

std::optional<SecureMemory::StagedImage> SecureMemory::stage_image(
    std::istream& in, bool accept_delta) {
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in) return std::nullopt;
  if (is_magic(magic, kImageMagic)) return stage_restore_tail(in);
  if (!accept_delta || !is_magic(magic, kDeltaMagic)) return std::nullopt;
  // A delta is read into the arena's stream buffer and staged there. The
  // buffer only grows: shrinking and regrowing would re-zero reused bytes
  // the reads overwrite anyway. The command length is bounded before it
  // sizes the read.
  std::vector<std::uint8_t>& buf = snap_arena_.delta_stream;
  if (buf.size() < kDeltaFieldBytes) buf.resize(kDeltaFieldBytes);
  in.read(reinterpret_cast<char*>(buf.data()), kDeltaFieldBytes);
  const std::uint64_t cmd_len = load_le64(buf.data() + 7 * 8);
  if (!in || cmd_len > delta_cmd_bound_) return std::nullopt;
  const std::size_t size = kDeltaFieldBytes +
                           static_cast<std::size_t>(cmd_len) +
                           static_cast<std::size_t>(root_level_bytes());
  if (buf.size() < size) buf.resize(size);
  in.read(reinterpret_cast<char*>(buf.data() + kDeltaFieldBytes),
          static_cast<std::streamsize>(size - kDeltaFieldBytes));
  if (!in) return std::nullopt;
  return stage_delta({buf.data(), size});
}

std::optional<SecureMemory::StagedImage> SecureMemory::stage_image(
    std::span<const std::uint8_t> image) {
  if (image.size() < sizeof(kImageMagic)) return std::nullopt;
  const auto tail = image.subspan(sizeof(kImageMagic));
  if (is_magic(image.data(), kDeltaMagic)) return stage_delta(tail);
  if (!is_magic(image.data(), kImageMagic)) return std::nullopt;
  SpanSource source(tail);
  std::istream tail_in(&source);
  return stage_restore_tail(tail_in);
}

std::optional<SecureMemory::StagedImage> SecureMemory::stage_restore_tail(
    std::istream& in) {
  for (const std::uint64_t field : image_geometry())
    if (read_u64(in) != field) return std::nullopt;

  // Read the off-chip image into staging storage adopted from the arena
  // (the state vectors the last commit replaced — right-sized and
  // page-warm); engine state is not touched. Every byte of every section
  // is overwritten by the reads below, so stale recycled contents never
  // leak into a staged image. The tree's zero-leaf build is deferred:
  // rebuild_from_lines overwrites every slot the image's leaves reach.
  StagedImage staged;
  staged.ciphertext = std::move(snap_arena_.ciphertext);
  staged.lanes = std::move(snap_arena_.lanes);
  staged.macs = std::move(snap_arena_.macs);
  staged.counter_store = std::move(snap_arena_.counter_store);
  staged.tree.emplace(layout_.tree(),
                      derive_keys(config_.master_key).tree_key,
                      BonsaiTree::DeferredBuild{});
  staged.ciphertext.resize(layout_.num_blocks());
  staged.lanes.resize(layout_.num_blocks());
  staged.macs.resize(macs_.size());
  staged.counter_store.resize(counter_store_.size());
  // Mirroring save(): contiguous sections in one stream call each; the
  // MAC words convert endianness in place (load_le64 per element).
  in.read(reinterpret_cast<char*>(staged.ciphertext.data()),
          static_cast<std::streamsize>(staged.ciphertext.size() *
                                       sizeof(DataBlock)));
  in.read(reinterpret_cast<char*>(staged.lanes.data()),
          static_cast<std::streamsize>(staged.lanes.size() *
                                       sizeof(EccLane)));
  if (!staged.macs.empty()) {
    in.read(reinterpret_cast<char*>(staged.macs.data()),
            static_cast<std::streamsize>(staged.macs.size() * 8));
    for (std::uint64_t& mac : staged.macs) {
      std::uint8_t raw[8];
      std::memcpy(raw, &mac, 8);
      mac = load_le64(raw);
    }
  }
  in.read(reinterpret_cast<char*>(staged.counter_store.data()),
          static_cast<std::streamsize>(staged.counter_store.size()));
  std::vector<std::uint8_t> sealed(root_level_bytes());
  in.read(reinterpret_cast<char*>(sealed.data()),
          static_cast<std::streamsize>(sealed.size()));
  // Rebuild the tree from the image's counter lines and check its root
  // level against the sealed snapshot — offline counter tamper dies here.
  // Bottom-up bulk rebuild: O(lines) batched MACs instead of the
  // O(lines x depth) scalar MACs of per-leaf root walks, bit-identical
  // final tree (see BonsaiTree::rebuild_from_lines).
  if (in) staged.tree->rebuild_from_lines(staged.counter_store);
  if (!in || !verify_root_level(*staged.tree, sealed)) {
    // A rejected image hands the adopted storage back to the arena.
    discard_image(std::move(staged));
    return std::nullopt;
  }
  return staged;
}

void SecureMemory::discard_image(StagedImage&& staged) const {
  if (!staged.tree) {
    snap_arena_.delta_cmds = std::move(staged.cmds);
    return;
  }
  snap_arena_.ciphertext = std::move(staged.ciphertext);
  snap_arena_.lanes = std::move(staged.lanes);
  snap_arena_.macs = std::move(staged.macs);
  snap_arena_.counter_store = std::move(staged.counter_store);
}

std::uint64_t SecureMemory::snapshot_arena_bytes() const noexcept {
  return snap_arena_.ciphertext.capacity() * sizeof(DataBlock) +
         snap_arena_.lanes.capacity() * sizeof(EccLane) +
         snap_arena_.macs.capacity() * sizeof(std::uint64_t) +
         snap_arena_.counter_store.capacity() +
         snap_arena_.delta_cmd.capacity() +
         snap_arena_.delta_stream.capacity() +
         snap_arena_.delta_cmds.capacity() * sizeof(delta::Command);
}

bool SecureMemory::commit_image(StagedImage&& staged) {
  if (!staged.tree) return commit_delta(std::move(staged));
  // Swap rather than move-assign: the replaced state vectors survive in
  // `staged` and are parked in the arena below, so the next stage
  // reuses their (right-sized, already-faulted) pages.
  std::swap(ciphertext_, staged.ciphertext);
  std::swap(lanes_, staged.lanes);
  std::swap(macs_, staged.macs);
  std::swap(counter_store_, staged.counter_store);
  tree_ = std::move(*staged.tree);
  tree_cache_.invalidate_all();  // cached state described the old tree
  // One virtual dispatch per region for the line decode and the shadow
  // counter refill (schemes override read_counters with direct group
  // walks) — same state as per-line deserialize_line and per-block
  // read_counter.
  scheme_->deserialize_all(counter_store_);
  scheme_->read_counters(shadow_ctr_);
  discard_image(std::move(staged));  // park the replaced vectors
  metrics_.add(MetricId::kRestores);
  trace(TraceEvent::Kind::kRestore, Status::kOk, 0);
  // Full images carry no chain state: the restored image becomes epoch
  // 0's base, and a delta sealed against it applies on any instance
  // that restored it (the seal covers the root level, not the epoch).
  snap_epoch_ = 0;
  align_chain();
  return true;
}

void SecureMemory::wipe_to_zeros() {
  // Leave the region in a valid, freshly-zeroed state. The cache is
  // dropped without write-back: it describes the pre-wipe tree, which
  // is being discarded either way.
  scheme_ = make_scheme(config_);
  tree_ =
      BonsaiTree(layout_.tree(), derive_keys(config_.master_key).tree_key);
  tree_cache_.invalidate_all();
  reset_all_blocks({}, 0);
  // The delta chain is broken: nothing will ever have this wiped state
  // as its base, so the next save_delta must emit a full image.
  snap_epoch_ = 0;
  has_base_ = false;
  mark_all_dirty();
}

/// ---------------------------------------------------------------------
/// Incremental (delta) snapshots.
/// ---------------------------------------------------------------------
void SecureMemory::mark_all_dirty() noexcept {
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty_words_[w].store(~std::uint64_t{0}, std::memory_order_relaxed);
}

void SecureMemory::clear_dirty() noexcept {
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty_words_[w].store(0, std::memory_order_relaxed);
}

std::uint64_t SecureMemory::dirty_granules() const noexcept {
  std::uint64_t count = 0;
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w) {
    std::uint64_t word = dirty_words_[w].load(std::memory_order_relaxed);
    if (w == dirty_word_count_ - 1 && num_granules_ % 64 != 0)
      word &= (std::uint64_t{1} << (num_granules_ % 64)) - 1;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

delta::Geometry SecureMemory::delta_geometry() const noexcept {
  delta::Geometry geo;
  geo.num_blocks = layout_.num_blocks();
  geo.blocks_per_line = scheme_->blocks_per_storage_line();
  geo.num_lines = layout_.num_counter_lines();
  geo.granule_blocks = granule_blocks_;
  geo.separate_macs = !macs_.empty();
  return geo;
}

std::uint64_t SecureMemory::root_seal() {
  tree_cache_.flush();
  // PRF mode, not the XOR-pad data MAC: every alignment point seals a
  // different root byte string under this one key, and both the seal
  // (delta header, plaintext) and the root bytes (trailer/full image)
  // are attacker-visible — XOR-pad reuse would hand out known-plaintext
  // hash-key equations. The PRF form has no uniqueness requirement.
  return seal_mac_.compute_prf(kSealDomain, root_level(tree_));
}

void SecureMemory::align_chain() {
  base_seal_ = root_seal();
  has_base_ = true;
  clear_dirty();
}

std::uint64_t SecureMemory::delta_cmd_mac(
    std::uint64_t base_epoch, std::uint64_t new_epoch,
    std::uint64_t base_seal, std::span<const std::uint8_t> cmd,
    std::span<const std::uint8_t> trailer) const noexcept {
  // The MAC covers everything a decoder acts on: the geometry header,
  // both epochs, the base seal, the command length, the command bytes,
  // and the expected-root trailer. Only the magic and the MAC itself
  // stay outside. The epochs are authenticated METADATA only, never a
  // MAC nonce — the epoch space is reused under one seal key (a full
  // restore resets it to 0, and two instances restored from one image
  // both seal epoch 0→1 next), so only the nonce-free PRF form
  // below is sound here. The message is header ‖ cmd ‖ trailer, hashed
  // part by part where it lies rather than copied into one buffer.
  const std::array<std::uint64_t, 4> geometry = image_geometry();
  const std::uint64_t fields[8] = {geometry[0], geometry[1], geometry[2],
                                   geometry[3], base_epoch,  new_epoch,
                                   base_seal,   cmd.size()};
  std::array<std::uint8_t, sizeof(fields)> header;
  for (std::size_t i = 0; i < 8; ++i)
    store_le64(header.data() + 8 * i, fields[i]);
  const std::array<std::span<const std::uint8_t>, 3> parts = {header, cmd,
                                                              trailer};
  return seal_mac_.compute_prf(kCmdMacDomain, parts);
}

Status SecureMemory::save_delta(std::ostream& out) {
  if (!has_base_) {
    // No usable base (fresh engine, broken chain): fall back to a full
    // image — which save() re-bases the chain on, so the NEXT save_delta
    // is incremental again.
    metrics_.add(MetricId::kDeltaSaveFallbacks);
    return save(out);
  }
  tree_cache_.flush();

  // Drain the dirty bitmap (relaxed loads: snapshot entry points run
  // under the engine's exclusive synchronization contract).
  std::vector<std::uint64_t>& dirty = scratch_.dirty_words;
  dirty.resize(dirty_word_count_);
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty[w] = dirty_words_[w].load(std::memory_order_relaxed);

  // Command output lands in recycled storage and the trailer in the
  // root-level scratch, which align_chain below reuses after the write.
  std::vector<std::uint8_t>& cmd = snap_arena_.delta_cmd;
  cmd.clear();
  const std::uint64_t dirty_count = delta::encode_from_dirty(
      delta_geometry(), {ciphertext_, lanes_, macs_, counter_store_}, dirty,
      cmd);

  const std::span<const std::uint8_t> trailer = root_level(tree_);
  const std::uint64_t new_epoch = snap_epoch_ + 1;
  const std::uint64_t mac =
      delta_cmd_mac(snap_epoch_, new_epoch, base_seal_, cmd, trailer);
  const std::uint64_t image_size =
      sizeof(kDeltaMagic) + kDeltaFieldBytes + cmd.size() + trailer.size();

  out.write(kDeltaMagic, sizeof(kDeltaMagic));
  for (const std::uint64_t field : image_geometry()) write_u64(out, field);
  write_u64(out, snap_epoch_);
  write_u64(out, new_epoch);
  write_u64(out, base_seal_);
  write_u64(out, cmd.size());
  write_u64(out, mac);
  out.write(reinterpret_cast<const char*>(cmd.data()),
            static_cast<std::streamsize>(cmd.size()));
  out.write(reinterpret_cast<const char*>(trailer.data()),
            static_cast<std::streamsize>(trailer.size()));

  // A lost delta breaks the chain SILENTLY — every later delta would
  // seal against a base that never persisted — so a stream failure must
  // not advance it. Epoch, base seal, and dirty bitmap stay put: the
  // next save_delta re-emits everything since the last good alignment
  // point against the still-valid old base.
  out.flush();
  if (!out) return Status::kSnapshotIoError;

  snap_epoch_ = new_epoch;
  align_chain();
  metrics_.add(MetricId::kDeltaSaves);
  metrics_.sample(EngineHistId::kDeltaImageBytes, image_size);
  metrics_.sample(EngineHistId::kDeltaDirtyGranules, dirty_count);
  return Status::kOk;
}

std::optional<SecureMemory::StagedImage> SecureMemory::stage_delta(
    std::span<const std::uint8_t> image) {
  if (image.size() < kDeltaFieldBytes) return std::nullopt;
  const auto field = [&image](unsigned i) {
    return load_le64(image.data() + 8 * i);
  };
  const std::array<std::uint64_t, 4> geometry = image_geometry();
  for (unsigned i = 0; i < geometry.size(); ++i)
    if (field(i) != geometry[i]) return std::nullopt;
  const std::uint64_t base_epoch = field(4);
  const std::uint64_t new_epoch = field(5);
  const std::uint64_t base_seal = field(6);
  const std::uint64_t cmd_len = field(7);
  const std::uint64_t mac = field(8);
  // The image is exactly header, commands and trailer: bound cmd_len
  // before it sizes the cut.
  if (cmd_len > delta_cmd_bound_ ||
      image.size() - kDeltaFieldBytes != cmd_len + root_level_bytes())
    return std::nullopt;
  const std::span<const std::uint8_t> cmd =
      image.subspan(kDeltaFieldBytes, static_cast<std::size_t>(cmd_len));
  const std::span<const std::uint8_t> trailer =
      image.subspan(kDeltaFieldBytes + static_cast<std::size_t>(cmd_len));

  // Verify-before-apply, in authentication order: (1) the command
  // section MAC — nothing below is interpreted until the whole stream
  // is known authentic; (2) the base seal against the engine's CURRENT
  // root — a delta only applies on the exact state it was diffed
  // against (a stale or cross-chain delta dies here, region intact);
  // (3) structural validation of the command stream, parsed into the
  // arena's recycled command vector; (4) tree authentication of every
  // counter line an ADD rewrites — the commit folds those lines' off-chip
  // paths into the tree, so a tampered node on one must reject here,
  // region intact, not surface after the apply.
  if (!ct_equal_u64(
          delta_cmd_mac(base_epoch, new_epoch, base_seal, cmd, trailer), mac))
    return std::nullopt;
  if (!ct_equal_u64(root_seal(), base_seal)) return std::nullopt;
  StagedImage staged;
  staged.new_epoch = new_epoch;
  staged.cmd = cmd;
  staged.trailer = trailer;
  staged.cmds = std::move(snap_arena_.delta_cmds);
  const delta::Geometry geo = delta_geometry();
  const auto paths_authentic = [&] {
    for (const delta::Command& c : staged.cmds) {
      if (c.op == delta::Command::kCopy) continue;
      // A run of granules covers one contiguous run of counter lines.
      const std::uint64_t end =
          std::min(geo.line_start(c.dst + c.n), geo.num_lines);
      for (std::uint64_t line = geo.line_start(c.dst); line < end; ++line)
        if (!verify_counter_line(line)) return false;
    }
    return true;
  };
  if (!delta::parse(geo, cmd, staged.cmds) || !paths_authentic()) {
    discard_image(std::move(staged));
    return std::nullopt;
  }
  return staged;
}

bool SecureMemory::commit_delta(StagedImage&& staged) {
  const delta::Geometry geo = delta_geometry();
  delta::MutSections sections{ciphertext_, lanes_, macs_, counter_store_};
  // The staged delta was authenticated in stage_delta (command MAC +
  // base-seal ct_equal_u64, then delta::parse) before this commit ran;
  // the stage/commit split is the verify-before-apply boundary itself.
  delta::apply(geo, staged.cmds,  // secmem-lint: allow(verify-before-apply)
               staged.cmd, sections);

  // Refresh the derived state of every granule the stream wrote:
  // counter-scheme registers from the new line bytes, tree leaves
  // through the verified-frontier update path (O(dirty x depth), not a
  // full rebuild — the in-place payoff on restore), and the per-block
  // shadow counters. update() folds each line's off-chip path into the
  // tree as it finds it; stage_delta authenticated every one of those
  // paths, so only authentic nodes are folded in.
  for (const delta::Command& cmd : staged.cmds) {
    if (cmd.op == delta::Command::kCopy) continue;
    for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
      const std::uint64_t line0 = geo.line_start(g);
      for (std::uint64_t line = line0; line < line0 + geo.lines_in(g);
           ++line) {
        const std::span<std::uint8_t, 64> bytes(
            counter_store_.data() + line * 64, 64);
        scheme_->deserialize_line(line, bytes);
        tree_cache_.update(line, bytes);
      }
      const std::uint64_t b0 = geo.block_start(g);
      for (std::uint64_t b = b0; b < b0 + geo.blocks_in(g); ++b)
        shadow_ctr_[b] = scheme_->read_counter(b);
    }
  }

  // Defense-in-depth: the MAC-covered trailer pins the post-apply root.
  // With every touched path authenticated at stage, a mismatch can only
  // mean the base seal collided (negligible), but serving data off a
  // mismatched tree is never acceptable — wipe.
  tree_cache_.flush();
  const bool root_ok = verify_root_level(tree_, staged.trailer);
  const std::uint64_t new_epoch = staged.new_epoch;
  discard_image(std::move(staged));  // park the command storage
  if (!root_ok) {
    wipe_to_zeros();
    metrics_.add(MetricId::kDeltaRejects);
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }

  snap_epoch_ = new_epoch;
  align_chain();
  metrics_.add(MetricId::kDeltaRestores);
  trace(TraceEvent::Kind::kRestore, Status::kOk, 0);
  return true;
}

bool SecureMemory::rotate_master_key(std::uint64_t new_master) {
  const std::optional<std::vector<DataBlock>> plaintexts = stage_rotation();
  if (!plaintexts) return false;
  commit_rotation(*plaintexts, new_master);
  return true;
}

std::optional<std::vector<DataBlock>> SecureMemory::stage_rotation() {
  // Flush barrier: the reads must authenticate against off-chip truth so
  // a rotation cannot launder state the eager path would have rejected.
  tree_cache_.flush();
  // Recover every plaintext under the current keys. Any verification
  // failure aborts with the region untouched — re-keying must never
  // launder tampered data into a freshly-authenticated state.
  std::vector<DataBlock> plaintexts(layout_.num_blocks());
  constexpr std::uint64_t kChunk = 128;
  std::array<std::uint64_t, kChunk> chunk_blocks;
  for (std::uint64_t base = 0; base < layout_.num_blocks(); base += kChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, layout_.num_blocks() - base));
    for (std::size_t i = 0; i < n; ++i) chunk_blocks[i] = base + i;
    const auto results = read_blocks({chunk_blocks.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      if (!status_ok(results[i].status)) {
        trace(TraceEvent::Kind::kKeyRotation, results[i].status, base + i);
        return std::nullopt;
      }
      plaintexts[base + i] = results[i].data;
    }
  }
  return plaintexts;
}

void SecureMemory::commit_rotation(std::span<const DataBlock> plaintexts,
                                   std::uint64_t new_master) {
  // Rebuild the cryptographic state. Fresh keys make every (addr,
  // counter) pair fresh again, so counters restart at zero.
  config_.master_key = new_master;
  const DerivedKeys keys = derive_keys(new_master);
  keystream_ = CtrKeystream(keys.data_key);
  mac_ = CwMac(keys.mac_key);
  seal_mac_ = CwMac(keys.seal_key);
  tree_ = BonsaiTree(layout_.tree(), keys.tree_key);
  tree_cache_.invalidate_all();  // the staging reads refilled it; old tree
  scheme_ = make_scheme(config_);
  std::fill(shadow_ctr_.begin(), shadow_ctr_.end(), 0);
  // The rotation breaks the snapshot chain: every byte re-encrypts and
  // the seal key itself changed, so no prior base exists. The next
  // save_delta emits a full image and re-bases the chain under the new
  // key — the rolling-rotation-across-a-chain contract.
  has_base_ = false;
  mark_all_dirty();

  // Re-encrypt everything and re-authenticate counter storage.
  reset_all_blocks(plaintexts, 0);
  metrics_.add(MetricId::kKeyRotations);
  trace(TraceEvent::Kind::kKeyRotation, Status::kOk, 0);
}

Status SecureMemory::write_bytes(std::uint64_t addr,
                                 std::span<const std::uint8_t> bytes) {
  // Overflow-safe: `addr + bytes.size()` wraps for addr near UINT64_MAX
  // and would sail past the range check.
  if (addr > config_.size_bytes || bytes.size() > config_.size_bytes - addr)
    throw std::out_of_range("SecureMemory::write_bytes: range exceeds region");
  metrics_.add(MetricId::kByteWrites);
  metrics_.sample(EngineHistId::kByteWriteBytes, bytes.size());
  if (bytes.empty()) return Status::kOk;
  const RangeVerdict verdict = write_range(
      addr, bytes, [this](std::uint64_t block) { return read_block(block); },
      [this](std::uint64_t block, const DataBlock& plain) {
        return write_block(block, plain);
      });
  trace(TraceEvent::Kind::kByteWrite, verdict.status, verdict.block);
  return verdict.status;
}

Status SecureMemory::read_bytes(std::uint64_t addr,
                                std::span<std::uint8_t> out) {
  if (addr > config_.size_bytes || out.size() > config_.size_bytes - addr)
    throw std::out_of_range("SecureMemory::read_bytes: range exceeds region");
  metrics_.add(MetricId::kByteReads);
  metrics_.sample(EngineHistId::kByteReadBytes, out.size());
  const RangeVerdict verdict = read_range(
      addr, out, [this](std::uint64_t block) { return read_block(block); });
  trace(TraceEvent::Kind::kByteRead, verdict.status, verdict.block);
  return verdict.status;
}

EngineStats SecureMemory::stats() const noexcept {
  return engine_stats_from({&metrics_});
}

void SecureMemory::reset_stats() noexcept { metrics_.reset(); }

void SecureMemory::publish_metrics(StatRegistry& registry,
                                   const std::string& prefix) const {
  publish_cells({&metrics_}, registry, prefix);
}

SecureMemory::UntrustedView::BlockSnapshot
SecureMemory::UntrustedView::snapshot(std::uint64_t block) const {
  const std::uint64_t line = m_.scheme_->storage_line_of(block);
  BlockSnapshot snap;
  snap.ciphertext = m_.ciphertext_.at(block);
  snap.lane = m_.lanes_.at(block);
  snap.mac = m_.macs_.empty() ? 0 : m_.macs_.at(block);
  snap.counter_line.assign(m_.counter_store_.begin() + line * 64,
                           m_.counter_store_.begin() + line * 64 + 64);
  return snap;
}

void SecureMemory::UntrustedView::restore(std::uint64_t block,
                                          const BlockSnapshot& snapshot) {
  const std::uint64_t line = m_.scheme_->storage_line_of(block);
  m_.ciphertext_.at(block) = snapshot.ciphertext;
  m_.lanes_.at(block) = snapshot.lane;
  if (!m_.macs_.empty()) m_.macs_.at(block) = snapshot.mac;
  std::memcpy(m_.counter_store_.data() + line * 64,
              snapshot.counter_line.data(), 64);
}

}  // namespace secmem
