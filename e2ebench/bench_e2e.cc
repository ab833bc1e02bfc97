// bench_e2e — the end-to-end benchmark driver. One named workload runs per
// process, through the engines' public API (SecureMemory,
// ShardedSecureMemory) or the Figure 8 timing model (SystemSimulator).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--quick]
//             [--trace-dir DIR] [--self-test]
//
// stdout gets one JSON document: the correctness tally, the end-to-end
// metrics of an untraced run or, with --trace-dir, the per-layer metrics
// of a traced run, and the host fingerprint. e2ebench/run.py builds this
// binary, runs it and turns the document into the benchmark's result line;
// e2ebench/README.md describes every workload and metric.
//
// Every workload is a closed loop: a client issues its next operation only
// after the previous one returned, with no think time. All inputs derive
// from --seed; the engines receive only the generated operations. Every
// read is checked against the expected plaintext outside the timed call.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "counters/counter_scheme.h"
#include "crypto/crypto_backend.h"
#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"
#include "ecc/flip_and_check.h"
#include "ecc/mac_ecc.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"
#include "sim/system_sim.h"
#include "sim/workload.h"
#include "tree/bonsai_geometry.h"
#include "tree/bonsai_tree.h"
#include "tree/tree_cache.h"

#ifndef SECMEM_E2E_COMPILER
#define SECMEM_E2E_COMPILER "unknown"
#endif
#ifndef SECMEM_E2E_BUILD_TYPE
#define SECMEM_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace secmem;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMiB = 1024 * 1024;

const Clock::time_point g_epoch = Clock::now();

std::uint64_t ns_since_epoch(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
          .count());
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Keeps a value alive so timed kernels are not folded away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Quantile q of `v`, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

/// Latency histogram with log-spaced buckets: 1 ns wide below 128 ns,
/// then 128 sub-buckets per power of two, so no bucket is wider than 1%
/// of its lower bound and no raw sample is stored.
class LatencyHist {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  LatencyHist() : buckets_((64 - kSubBits + 1) * kSub, 0) {}

  void add(std::uint64_t ns) noexcept {
    ++buckets_[index(ns)];
    ++count_;
    sum_ += static_cast<double>(ns);
  }
  void merge(const LatencyHist& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }

  /// Value at quantile q (0..1]: the samples of the bucket holding that
  /// rank are taken as evenly spread over the bucket's width.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (seen + buckets_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(buckets_[i]);
        return lower_bound(i) + width(i) * within;
      }
      seen += buckets_[i];
    }
    return lower_bound(buckets_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift = 63u - static_cast<unsigned>(std::countl_zero(v)) -
                           kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double lower_bound(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    return static_cast<double>((i % kSub + kSub) << (i / kSub - 1));
  }
  static double width(std::size_t i) noexcept {
    return i < kSub ? 1.0 : static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// ---------------------------------------------------------------------
// Spans: (name, start, end, parent, op id), kept in preallocated
// per-thread memory and written out when the run ends.
// ---------------------------------------------------------------------

enum SpanName : std::uint16_t {
  kSpanRep,
  kSpanRead,
  kSpanReadCorrected,
  kSpanWrite,
  kSpanWriteOverflow,
  kSpanCycle,
  kSpanWriteBatch,
  kSpanSaveDelta,
  kSpanRestoreDelta,
  kSpanRestoreDeltaStage,
  kSpanRestoreDeltaCommit,
  kSpanSaveFull,
  kSpanRestoreFull,
  kSpanRestoreFullStage,
  kSpanRestoreFullCommit,
  kSpanCheck,
  kSpanSimPass,
  kSpanSimRun,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "bench.rep",
    "engine.read",
    "engine.read_corrected",
    "engine.write",
    "engine.write_overflow",
    "checkpoint.cycle",
    "engine.write_blocks",
    "engine.save_delta",
    "engine.restore_delta",
    "engine.restore_delta.stage",
    "engine.restore_delta.commit",
    "engine.save_full",
    "engine.restore_full",
    "engine.restore_full.stage",
    "engine.restore_full.commit",
    "checkpoint.check",
    "sim.pass",
    "sim.run",
};

/// Read/write workloads keep the span of every kSpanStride-th op, which
/// is an unbiased sample, plus every overflow write and corrected read.
constexpr std::uint64_t kSpanStride = 256;
/// Spans each thread can keep (reserved up front, so the memory is only
/// touched as spans are recorded); later spans are counted as dropped.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t op;
  std::uint32_t parent;
  std::uint16_t name;
};

class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  std::uint32_t add(SpanName name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent,
                    std::uint64_t op) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNone;
    }
    spans_.push_back(Span{start_ns, end_ns, op, parent, name});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Open a parent span; close() stamps its end.
  std::uint32_t open(SpanName name, std::uint64_t start_ns,
                     std::uint32_t parent, std::uint64_t op) {
    return add(name, start_ns, start_ns, parent, op);
  }
  void close(std::uint32_t id, std::uint64_t end_ns) {
    if (id != kNone) spans_[id].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;

  /// Count one operation; `ok` false records a failure of `kind`.
  void op(bool ok, const char* kind) {
    ++attempted;
    if (!ok) {
      ++failed;
      ++failures[kind];
    }
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [kind, n] : other.failures) failures[kind] += n;
  }
};

struct Result {
  Tally tally;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, double> samples;
  std::vector<std::string> fig8_csv;
  std::string spans_file;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  std::string trace_dir;  ///< non-empty: traced run
  bool self_test = false;

  bool traced() const { return !trace_dir.empty(); }
  /// Quick runs shrink every region 8x so set-up fits the smoke budget.
  std::uint64_t region(std::uint64_t mib) const {
    return (quick ? mib / 8 : mib) * kMiB;
  }
  double warmup_s() const { return std::min(1.0, seconds / 10.0); }
};

/// Timed slices per run. On a host shared with other tenants, contention
/// for the shared cache and memory comes and goes within a second and
/// moves a slice's throughput by up to 40%, while the least-disturbed
/// slices repeat from run to run. So a run reports the kFastQ quantile of
/// its slices' throughputs, and the 1 - kFastQ quantile of their latency
/// percentiles. (checkpoint slices by rounds of cycles instead.)
constexpr unsigned kRwSlices = 80;
constexpr double kFastQ = 0.9;
constexpr unsigned kSetups = 5;

/// Plaintext of `block` at write `version`, derived from the seed alone.
DataBlock expected_block(std::uint64_t seed, std::uint64_t block,
                         std::uint32_t version) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL ^
                        (block + 1) * 0xbf58476d1ce4e5b9ULL ^
                        (std::uint64_t{version} + 1) * 0x94d049bb133111ebULL;
  DataBlock out;
  for (std::size_t w = 0; w < kBlockBytes / 8; ++w) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + 8 * w, &word, 8);
  }
  return out;
}

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which keeps the high-water mark of the process
/// that forked and exec'd this one.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Median wall time of kSetups calls to `setup`; the last set-up stays.
template <typename Fn>
double timed_setups(Fn&& setup) {
  std::vector<double> times;
  for (unsigned i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Prefill every block with its version-0 plaintext.
void prefill(SecureMemoryLike& mem, std::uint64_t seed, Tally& tally) {
  std::vector<BlockWrite> batch;
  batch.reserve(256);
  const std::uint64_t n = mem.num_blocks();
  for (std::uint64_t b = 0; b < n; ++b) {
    batch.push_back(BlockWrite{b, expected_block(seed, b, 0)});
    if (batch.size() == 256 || b + 1 == n) {
      tally.op(mem.write_blocks(batch) == Status::kOk, "prefill_status");
      batch.clear();
    }
  }
}

// ---------------------------------------------------------------------
// Standalone kernel costs (traced runs), at the workload's geometry.
// ---------------------------------------------------------------------

struct KernelCosts {
  double crypt_ns = 0, crypt_batch_ns = 0, mac_ns = 0, mac_batch_ns = 0;
  double pack_ns = 0, unpack_ns = 0, correct1_ns = 0, correct2_ns = 0;
  double verify_hit_ns = 0, verify_miss_ns = 0, verify_eager_ns = 0;
  double update_ns = 0, rebuild_ns = 0;
  double on_write_ns = 0, serialize_ns = 0, deserialize_all_ns = 0;
};

/// Median over `batches` of the per-call time of `iters` calls to fn(i).
template <typename Fn>
double ns_per_call(unsigned batches, unsigned iters, Fn&& fn) {
  std::vector<double> v;
  std::uint64_t i = 0;
  for (unsigned b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (unsigned k = 0; k < iters; ++k) fn(i++);
    v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count() /
                iters);
  }
  return median(v);
}

KernelCosts measure_kernels(std::uint64_t region_bytes, Xoshiro256& rng,
                            Tally& tally) {
  KernelCosts k;
  const Aes128::Key aes_key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const CwMacKey mac_key{rng.next() | 1, aes_key};
  const std::uint64_t num_blocks = region_bytes / kBlockBytes;

  // crypto: AES-CTR keystream and Carter-Wegman MAC, single and 64-batch.
  const CtrKeystream ks(aes_key);
  const CwMac mac(mac_key);
  constexpr std::size_t kBatch = 64;
  std::vector<std::uint64_t> addrs(kBatch), ctrs(kBatch), tags(kBatch);
  std::vector<DataBlock> blocks(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    addrs[i] = rng.next_below(num_blocks) * kBlockBytes;
    ctrs[i] = rng.next() >> 8;
    blocks[i] = expected_block(rng.next(), i, 0);
  }
  DataBlock blk = blocks[0];
  k.crypt_ns = ns_per_call(7, 20000, [&](std::uint64_t i) {
    ks.crypt(addrs[i % kBatch], i, blk);
    keep(blk);
  });
  k.crypt_batch_ns = ns_per_call(7, 400, [&](std::uint64_t) {
                       ks.crypt_batch(addrs, ctrs, blocks);
                       keep(blocks[0]);
                     }) /
                     kBatch;
  k.mac_ns = ns_per_call(7, 20000, [&](std::uint64_t i) {
    keep(mac.compute_block(addrs[i % kBatch], i, blocks[i % kBatch]));
  });
  k.mac_batch_ns = ns_per_call(7, 400, [&](std::uint64_t) {
                     mac.compute_batch(addrs, ctrs,
                                       std::span<const DataBlock>(blocks),
                                       tags);
                     keep(tags[0]);
                   }) /
                   kBatch;

  // ecc: MAC-in-ECC lane codec and flip-and-check correction.
  const MacEccCodec codec;
  std::vector<EccLane> lanes(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    lanes[i] = codec.pack_lane(tags[i] & kMacMask, blocks[i]);
  k.pack_ns = ns_per_call(7, 20000, [&](std::uint64_t i) {
    keep(codec.pack_lane(i & kMacMask, blocks[i % kBatch]));
  });
  k.unpack_ns = ns_per_call(7, 20000, [&](std::uint64_t i) {
    keep(codec.unpack_lane(lanes[i % kBatch]).mac);
  });
  const FlipAndCheck corrector;
  auto correction_ns = [&](unsigned bits, unsigned samples) {
    std::vector<double> v;
    for (unsigned s = 0; s < samples; ++s) {
      const std::uint64_t addr = addrs[s % kBatch];
      const std::uint64_t ctr = rng.next() >> 8;
      const DataBlock clean = expected_block(rng.next(), s, 1);
      const std::uint64_t pad = mac.pad_for(addr, ctr);
      const std::uint64_t tag = mac.compute_with_pad(pad, clean);
      DataBlock bad = clean;
      const std::size_t b1 = rng.next_below(512);
      flip_bit(bad, b1);
      if (bits == 2) flip_bit(bad, (b1 + 1 + rng.next_below(511)) % 512);
      const auto t0 = Clock::now();
      const CorrectionResult fix =
          corrector.correct_incremental(bad, mac, pad, tag);
      v.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
      tally.op(fix.status != CorrectionStatus::kUncorrectable &&
                   fix.data == clean,
               "kernel_correction");
    }
    return median(v);
  };
  k.correct1_ns = correction_ns(1, 201);
  k.correct2_ns = correction_ns(2, 31);

  // tree: Bonsai tree + verified-frontier cache over this geometry's
  // counter lines (delta counters: one 64-byte line per 64 blocks).
  const std::unique_ptr<CounterScheme> scheme =
      make_counter_scheme(CounterSchemeKind::kDelta, num_blocks);
  const std::uint64_t lines = scheme->num_storage_lines();
  const BonsaiGeometry geometry(lines, 3 * 1024);
  BonsaiTree tree(geometry, mac_key, BonsaiTree::DeferredBuild{});
  std::vector<std::uint8_t> store(lines * BonsaiTree::kLineBytes);
  for (std::uint64_t l = 0; l < lines; ++l)
    scheme->serialize_line(
        l, std::span<std::uint8_t, 64>(store.data() + l * 64, 64));
  {
    std::vector<double> v;
    for (unsigned r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      tree.rebuild_from_lines(store);
      v.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
    k.rebuild_ns = median(v);
  }
  auto line_view = [&](std::uint64_t l) {
    return BonsaiTree::LineView(store.data() + l * 64, 64);
  };
  {
    VerifiedTreeCache cache(tree, TreeCacheConfig{});
    bool ok = cache.verify(0, line_view(0));
    k.verify_hit_ns = ns_per_call(7, 20000, [&](std::uint64_t) {
      ok &= cache.verify(0, line_view(0));
    });
    k.verify_miss_ns = ns_per_call(7, 4000, [&](std::uint64_t) {
      const std::uint64_t l = rng.next_below(lines);
      ok &= cache.verify(l, line_view(l));
    });
    k.update_ns = ns_per_call(7, 4000, [&](std::uint64_t) {
      const std::uint64_t l = rng.next_below(lines);
      cache.update(l, line_view(l));
    });
    cache.flush();
    k.verify_eager_ns = ns_per_call(7, 4000, [&](std::uint64_t) {
      const std::uint64_t l = rng.next_below(lines);
      ok &= tree.verify_leaf(l, line_view(l));
    });
    tally.op(ok, "kernel_tree_verify");
  }

  // counters: delta-counter write, line serialization, bulk decode.
  k.on_write_ns = ns_per_call(7, 20000, [&](std::uint64_t) {
    keep(scheme->on_write(rng.next_below(num_blocks)).counter);
  });
  std::array<std::uint8_t, 64> line_buf{};
  k.serialize_ns = ns_per_call(7, 20000, [&](std::uint64_t) {
    scheme->serialize_line(rng.next_below(lines), line_buf);
    keep(line_buf);
  });
  for (std::uint64_t l = 0; l < lines; ++l)
    scheme->serialize_line(
        l, std::span<std::uint8_t, 64>(store.data() + l * 64, 64));
  {
    std::vector<double> v;
    for (unsigned r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      scheme->deserialize_all(store);
      v.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
    k.deserialize_all_ns = median(v);
  }
  return k;
}

void publish_kernels(const KernelCosts& k, Result& res) {
  auto& l = res.layers;
  l["crypto.crypt_ns"] = k.crypt_ns;
  l["crypto.crypt_batch_ns"] = k.crypt_batch_ns;
  l["crypto.mac_ns"] = k.mac_ns;
  l["crypto.mac_batch_ns"] = k.mac_batch_ns;
  l["ecc.pack_lane_ns"] = k.pack_ns;
  l["ecc.unpack_lane_ns"] = k.unpack_ns;
  l["ecc.correct_1bit_us"] = k.correct1_ns / 1e3;
  l["ecc.correct_2bit_us"] = k.correct2_ns / 1e3;
  l["tree.verify_hit_ns"] = k.verify_hit_ns;
  l["tree.verify_miss_ns"] = k.verify_miss_ns;
  l["tree.verify_eager_ns"] = k.verify_eager_ns;
  l["tree.update_ns"] = k.update_ns;
  l["tree.rebuild_ms"] = k.rebuild_ns / 1e6;
  l["counters.on_write_ns"] = k.on_write_ns;
  l["counters.serialize_line_ns"] = k.serialize_ns;
  l["counters.deserialize_all_ms"] = k.deserialize_all_ns / 1e6;
}

/// The Figure 8 variants, in bench_fig8_performance's order.
struct Variant {
  const char* name;
  Protection protection;
  CounterSchemeKind scheme;
  MacPlacement placement;
};
constexpr Variant kVariants[] = {
    {"no_enc", Protection::kNone, CounterSchemeKind::kMonolithic56,
     MacPlacement::kEccLane},
    {"bmt", Protection::kEncrypted, CounterSchemeKind::kMonolithic56,
     MacPlacement::kSeparate},
    {"mac_ecc", Protection::kEncrypted, CounterSchemeKind::kMonolithic56,
     MacPlacement::kEccLane},
    {"delta", Protection::kEncrypted, CounterSchemeKind::kDelta,
     MacPlacement::kSeparate},
    {"optimized", Protection::kEncrypted, CounterSchemeKind::kDelta,
     MacPlacement::kEccLane},
};
constexpr const char* kFig8Apps[] = {"facesim",      "dedup",    "canneal",
                                     "ferret",       "fluidanimate",
                                     "freqmine",     "raytrace"};

/// Every per-layer metric whose value depends on the workload, so a
/// workload that leaves a layer idle still reports it (as 0).
void zero_workload_layers(Result& res) {
  static const char* const kNames[] = {
      "trace.op_p50_ns",
      "trace.op_p99_ns",
      "trace.overhead_share",
      "engine.read.share",
      "engine.write.share",
      "engine.write_overflow.cost_x",
      "engine.read_corrected.cost_x",
      "engine.mt_slowdown",
      "engine.shared_read_share",
      "engine.shared_decline_ratio",
      "engine.save_delta.share",
      "engine.restore_delta.share",
      "engine.restore_delta.stage_share",
      "engine.save_full.share",
      "engine.restore_full.share",
      "engine.restore_full.stage_share",
      "engine.dirty_granule_share",
      "engine.delta_bytes_ratio",
      "engine.image_bytes_per_byte",
      "engine.unattributed_share",
      "tree.hit_ratio",
      "tree.fills_per_op",
      "tree.writebacks_per_op",
      "tree.probe_hit_ratio",
      "tree.est_share",
      "counters.reencryptions_per_kwrite",
      "counters.reencrypted_blocks_per_kwrite",
      "counters.est_share",
      "crypto.est_share",
      "ecc.corrections_per_kop",
      "ecc.mac_evals_per_correction",
      "ecc.est_share",
  };
  for (const char* name : kNames) res.layers[name] = 0.0;
  for (const Variant& v : kVariants) {
    const std::string base = std::string("sim.") + v.name;
    res.layers[base + ".mrefs_per_s"] = 0.0;
    res.layers[base + ".dram_per_kref"] = 0.0;
    if (v.protection == Protection::kNone) continue;
    res.layers[base + ".ipc_norm"] = 0.0;
    res.layers[base + ".reencryptions"] = 0.0;
    res.layers[std::string("metacache.") + v.name + ".hit_ratio"] = 0.0;
  }
}

/// Attribution: engine-reported counts x standalone kernel costs, as
/// shares of the measured span time. The five shares add up to 1; when
/// the estimates exceed the span time they are scaled to fit.
void publish_attribution(double crypto_ns, double ecc_ns, double tree_ns,
                         double counters_ns, double span_ns, Result& res) {
  double shares[4] = {ratio(crypto_ns, span_ns), ratio(ecc_ns, span_ns),
                      ratio(tree_ns, span_ns), ratio(counters_ns, span_ns)};
  double total = shares[0] + shares[1] + shares[2] + shares[3];
  if (total > 1.0) {
    for (double& s : shares) s /= total;
    total = 1.0;
  }
  res.layers["crypto.est_share"] = shares[0];
  res.layers["ecc.est_share"] = shares[1];
  res.layers["tree.est_share"] = shares[2];
  res.layers["counters.est_share"] = shares[3];
  res.layers["engine.unattributed_share"] = 1.0 - total;
}

/// Engine counters read through publish_metrics (region aggregate).
struct EngineCounts {
  double reads = 0, writes = 0, reencryptions = 0, corrected = 0;
  double mac_evals = 0, hits = 0, misses = 0, fills = 0, writebacks = 0;
  double probe_hits = 0, probe_misses = 0, shared_reads = 0, declines = 0;

  static EngineCounts of(const SecureMemoryLike& mem) {
    StatRegistry reg;
    mem.publish_metrics(reg, "engine");
    auto c = [&](const char* name) {
      return static_cast<double>(reg.counter_value(std::string("engine.") +
                                                   name));
    };
    EngineCounts e;
    e.reads = c("reads");
    e.writes = c("writes");
    e.reencryptions = c("group_reencryptions");
    e.corrected = c("corrected_data") + c("corrected_mac_field");
    e.mac_evals = c("mac_evaluations");
    e.hits = c("tree_cache.hits");
    e.misses = c("tree_cache.misses");
    e.fills = c("tree_cache.fills");
    e.writebacks = c("tree_cache.writebacks");
    e.probe_hits = c("tree_cache.probe_hits");
    e.probe_misses = c("tree_cache.probe_misses");
    e.shared_reads = c("shared_reads");
    e.declines = c("shared_read_declines");
    return e;
  }
  EngineCounts operator-(const EngineCounts& o) const {
    EngineCounts d;
    for (const auto f : kFields) d.*f = this->*f - o.*f;
    return d;
  }
  EngineCounts& operator+=(const EngineCounts& o) {
    for (const auto f : kFields) this->*f += o.*f;
    return *this;
  }
  EngineCounts operator+(const EngineCounts& o) const {
    EngineCounts s = *this;
    return s += o;
  }

 private:
  static constexpr double EngineCounts::*kFields[] = {
      &EngineCounts::reads,        &EngineCounts::writes,
      &EngineCounts::reencryptions, &EngineCounts::corrected,
      &EngineCounts::mac_evals,    &EngineCounts::hits,
      &EngineCounts::misses,       &EngineCounts::fills,
      &EngineCounts::writebacks,   &EngineCounts::probe_hits,
      &EngineCounts::probe_misses, &EngineCounts::shared_reads,
      &EngineCounts::declines};
};

/// Per-layer counts common to every engine workload.
void publish_engine_counts(const EngineCounts& d, double ops,
                           unsigned group_blocks, Result& res) {
  auto& l = res.layers;
  l["tree.hit_ratio"] = ratio(d.hits, d.hits + d.misses);
  l["tree.probe_hit_ratio"] = ratio(d.probe_hits, d.probe_hits + d.probe_misses);
  l["tree.fills_per_op"] = ratio(d.fills, ops);
  l["tree.writebacks_per_op"] = ratio(d.writebacks, ops);
  l["counters.reencryptions_per_kwrite"] = 1e3 * ratio(d.reencryptions, d.writes);
  l["counters.reencrypted_blocks_per_kwrite"] =
      1e3 * ratio(d.reencryptions * (group_blocks - 1), d.writes);
  l["ecc.corrections_per_kop"] = 1e3 * ratio(d.corrected, ops);
  l["ecc.mac_evals_per_correction"] = ratio(d.mac_evals, d.corrected);
  l["engine.shared_read_share"] = ratio(d.shared_reads, d.reads);
  l["engine.shared_decline_ratio"] =
      ratio(d.declines, d.shared_reads + d.declines);
}

unsigned blocks_per_group() {
  SecureMemoryConfig probe;
  probe.size_bytes = 64 * 1024;
  return SecureMemory::make_scheme(probe)->blocks_per_group();
}

unsigned blocks_per_line() {
  SecureMemoryConfig probe;
  probe.size_bytes = 64 * 1024;
  return SecureMemory::make_scheme(probe)->blocks_per_storage_line();
}

// ---------------------------------------------------------------------
// Read/write workloads: kv_hot, uniform_cold, overflow_storm, mt_mixed.
// ---------------------------------------------------------------------

struct RwSpec {
  double read_share = 0.9;
  std::vector<std::uint64_t> reads;   ///< candidate blocks; empty = all
  std::vector<std::uint64_t> writes;  ///< empty = same as reads
  bool round_robin_writes = false;
  /// Before 1 read in 256 flip one ciphertext bit of the target block, and
  /// before 1 in 8192 two bits (untimed); the bits are flipped back after
  /// the read, so no block ever holds more than one fault.
  bool inject_faults = false;
};

struct RwThread {
  explicit RwThread(std::uint64_t seed) : rng(seed) {}

  /// Zero the per-slice counters; `log` is non-null for a traced slice.
  void start_slice(SpanLog* log, std::uint32_t slice) {
    ops = faults1 = faults2 = 0;
    reads = LatencyHist();
    writes = LatencyHist();
    spans = log;
    rep_span = log ? log->open(kSpanRep, ns_since_epoch(Clock::now()),
                               SpanLog::kNone, slice)
                   : SpanLog::kNone;
  }

  Xoshiro256 rng;
  std::uint64_t rr = 0;
  std::uint64_t next_op = 0;
  Tally tally;
  // Per slice:
  std::uint64_t ops = 0;
  std::uint64_t faults1 = 0, faults2 = 0;
  LatencyHist reads, writes;
  SpanLog* spans = nullptr;
  std::uint32_t rep_span = SpanLog::kNone;
};

std::uint64_t reencryptions_of(const SecureMemory& mem) {
  return mem.metrics_cell().value(MetricId::kGroupReencryptions);
}
std::uint64_t reencryptions_of(const ShardedSecureMemory& mem) {
  return mem.stats().group_reencryptions;
}

/// One client's closed loop until `deadline`.
template <typename Engine>
void rw_loop(Engine& mem, const RwSpec& spec, std::uint64_t seed,
             std::vector<std::uint32_t>& versions, RwThread& t,
             Clock::time_point deadline) {
  const std::uint64_t n = mem.num_blocks();
  const std::vector<std::uint64_t>& wset =
      spec.writes.empty() ? spec.reads : spec.writes;
  auto pick = [&](const std::vector<std::uint64_t>& set) {
    return set.empty() ? t.rng.next_below(n) : set[t.rng.next_below(set.size())];
  };
  SpanLog* spans = t.spans;
  for (;;) {
    const std::uint64_t op = t.next_op++;
    const bool keep_span = spans && op % kSpanStride == 0;
    Clock::time_point t0, t1;
    if (t.rng.next_double() < spec.read_share) {
      const std::uint64_t b = pick(spec.reads);
      unsigned faults = 0;
      std::size_t bits[2] = {0, 0};
      if constexpr (std::is_same_v<Engine, SecureMemory>) {
        if (spec.inject_faults) {
          const std::uint64_t r = t.rng.next();
          faults = r % 8192 == 0 ? 2 : r % 256 == 0 ? 1 : 0;
          if (faults) {
            bits[0] = t.rng.next_below(512);
            bits[1] = (bits[0] + 1 + t.rng.next_below(511)) % 512;
            for (unsigned f = 0; f < faults; ++f)
              mem.untrusted().flip_ciphertext_bit(b, bits[f]);
            (faults == 1 ? t.faults1 : t.faults2) += 1;
          }
        }
      }
      t0 = Clock::now();
      const ReadResult r = mem.read_block(b);
      t1 = Clock::now();
      if constexpr (std::is_same_v<Engine, SecureMemory>) {
        for (unsigned f = 0; f < faults; ++f)
          mem.untrusted().flip_ciphertext_bit(b, bits[f]);
      }
      t.reads.add(ns_between(t0, t1));
      const bool ok = status_ok(r.status);
      t.tally.op(ok && r.data == expected_block(seed, b, versions[b]),
                 ok ? "read_mismatch" : "read_status");
      const bool corrected = r.status == Status::kCorrectedData;
      if (spans && (keep_span || corrected))
        spans->add(corrected ? kSpanReadCorrected : kSpanRead,
                   ns_since_epoch(t0), ns_since_epoch(t1), t.rep_span, op);
    } else {
      const std::uint64_t b = spec.round_robin_writes
                                  ? wset[t.rr++ % wset.size()]
                                  : pick(wset);
      const DataBlock data = expected_block(seed, b, ++versions[b]);
      const std::uint64_t reenc_before = spans ? reencryptions_of(mem) : 0;
      t0 = Clock::now();
      const Status st = mem.write_block(b, data);
      t1 = Clock::now();
      t.writes.add(ns_between(t0, t1));
      t.tally.op(st == Status::kOk, "write_status");
      if (spans) {
        const bool overflow = reencryptions_of(mem) != reenc_before;
        if (keep_span || overflow)
          spans->add(overflow ? kSpanWriteOverflow : kSpanWrite,
                     ns_since_epoch(t0), ns_since_epoch(t1), t.rep_span, op);
      }
    }
    ++t.ops;
    if (t1 >= deadline) break;
  }
}

/// Span-derived per-layer metrics of the read/write workloads.
struct SpanStats {
  LatencyHist sampled;  ///< every kSpanStride-th op: unbiased op latency
  LatencyHist read, write, corrected, overflow;
  double read_ns = 0, write_ns = 0;  ///< sampled time per kind
};

void collect_rw_spans(const SpanLog& log, SpanStats& s) {
  for (const Span& sp : log.spans()) {
    const std::uint64_t d = sp.end_ns - sp.start_ns;
    const bool sampled = sp.op % kSpanStride == 0;
    switch (sp.name) {
      case kSpanRead: s.read.add(d); break;
      case kSpanWrite: s.write.add(d); break;
      case kSpanReadCorrected: s.corrected.add(d); break;
      case kSpanWriteOverflow: s.overflow.add(d); break;
      default: continue;
    }
    if (!sampled) continue;
    s.sampled.add(d);
    if (sp.name == kSpanRead || sp.name == kSpanReadCorrected)
      s.read_ns += static_cast<double>(d);
    else
      s.write_ns += static_cast<double>(d);
  }
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << "thread,span,name,start_ns,end_ns,parent,op\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << ',' << i << ',' << kSpanNames[s.name] << ',' << s.start_ns
          << ',' << s.end_ns << ','
          << (s.parent == SpanLog::kNone ? -1
                                         : static_cast<long long>(s.parent))
          << ',' << s.op << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

std::string spans_path(const Options& opt) {
  std::filesystem::create_directories(opt.trace_dir);
  return opt.trace_dir + "/" + opt.workload + "-seed" +
         std::to_string(opt.seed) + ".spans.csv";
}

/// Drive a read/write workload: warm-up, kRwSlices timed slices (in a
/// traced run, odd slices are traced and even slices give the untraced
/// baseline), then the per-layer numbers.
template <typename Engine>
void run_rw(const Options& opt, Engine& mem, const std::vector<RwSpec>& specs,
            std::vector<std::uint32_t>& versions, std::uint64_t region_bytes,
            Result& res) {
  const unsigned threads = static_cast<unsigned>(specs.size());
  std::vector<std::unique_ptr<RwThread>> ts;
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (unsigned i = 0; i < threads; ++i) {
    ts.push_back(std::make_unique<RwThread>(opt.seed * 7919 + i + 1));
    if (opt.traced()) logs.push_back(std::make_unique<SpanLog>(kSpanCapacity));
  }

  // Run every client until `seconds` elapse; returns the rep's wall time.
  auto rep = [&](double seconds, unsigned clients) {
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    Clock::time_point start, deadline;
    auto body = [&](unsigned i) {
      while (!go.load(std::memory_order_acquire)) {
      }
      try {
        rw_loop(mem, specs[i], opt.seed, versions, *ts[i], deadline);
      } catch (const std::exception&) {
        ts[i]->tally.op(false, "exception");
      }
    };
    for (unsigned i = 1; i < clients; ++i) workers.emplace_back(body, i);
    start = Clock::now();
    deadline = start + to_duration(seconds);
    go.store(true, std::memory_order_release);
    body(0);
    for (std::thread& w : workers) w.join();
    return seconds_between(start, Clock::now());
  };

  rep(opt.warmup_s(), threads);

  const double rep_s = opt.seconds / kRwSlices;
  std::vector<double> plain_rates, traced_rates, p50s;
  EngineCounts traced_counts;
  double samples = 0, traced_op_ns = 0, traced_ops = 0, faults1 = 0,
         faults2 = 0;
  for (unsigned r = 0; r < kRwSlices; ++r) {
    const bool traced = opt.traced() && r % 2 == 1;
    for (unsigned i = 0; i < threads; ++i)
      ts[i]->start_slice(traced ? logs[i].get() : nullptr, r);
    const EngineCounts before = EngineCounts::of(mem);
    const double elapsed = rep(rep_s, threads);
    const EngineCounts after = EngineCounts::of(mem);
    double ops = 0;
    LatencyHist rep_hist;
    for (auto& t : ts) {
      if (traced) t->spans->close(t->rep_span, ns_since_epoch(Clock::now()));
      ops += static_cast<double>(t->ops);
      rep_hist.merge(t->reads);
      rep_hist.merge(t->writes);
      if (traced) {
        faults1 += static_cast<double>(t->faults1);
        faults2 += static_cast<double>(t->faults2);
      }
    }
    (traced ? traced_rates : plain_rates).push_back(ops / elapsed);
    if (traced) {
      traced_counts += after - before;
      traced_ops += ops;
      traced_op_ns += rep_hist.sum();
    } else {
      p50s.push_back(rep_hist.percentile(0.50));
      samples += static_cast<double>(rep_hist.count());
    }
  }
  for (auto& t : ts) res.tally.merge(t->tally);

  res.e2e["ops_per_s"] = quantile(plain_rates, kFastQ);
  res.e2e["op_p50_us"] = quantile(p50s, 1 - kFastQ) / 1e3;
  res.samples["op_latency"] = samples;
  res.samples["slices"] = static_cast<double>(plain_rates.size());
  res.samples["clients"] = threads;
  if (!opt.traced()) return;

  // mt_slowdown: read p50 at N clients over a 1-client rep on this engine.
  if (threads > 1) {
    LatencyHist n_reads;
    for (auto& t : ts) n_reads.merge(t->reads);
    ts[0]->start_slice(nullptr, kRwSlices);
    ts[0]->tally = Tally();
    rep(opt.seconds / 5, 1);
    res.layers["engine.mt_slowdown"] =
        ratio(n_reads.percentile(0.5), ts[0]->reads.percentile(0.5));
    res.tally.merge(ts[0]->tally);
  }

  SpanStats s;
  std::vector<const SpanLog*> views;
  double dropped = 0;
  for (const auto& log : logs) {
    collect_rw_spans(*log, s);
    views.push_back(log.get());
    dropped += static_cast<double>(log->dropped());
  }
  res.spans_file = spans_path(opt);
  write_spans(res.spans_file, views);
  auto& l = res.layers;
  l["trace.op_p50_ns"] = s.sampled.percentile(0.50);
  l["trace.op_p99_ns"] = s.sampled.percentile(0.99);
  l["trace.overhead_share"] = 1.0 - ratio(quantile(traced_rates, kFastQ),
                                          quantile(plain_rates, kFastQ));
  l["engine.read.share"] = ratio(s.read_ns, s.read_ns + s.write_ns);
  l["engine.write.share"] = ratio(s.write_ns, s.read_ns + s.write_ns);
  // Both read 0 where the workload never overflows or corrects.
  l["engine.write_overflow.cost_x"] =
      ratio(s.overflow.percentile(0.5), s.write.percentile(0.5));
  l["engine.read_corrected.cost_x"] =
      ratio(s.corrected.percentile(0.5), s.read.percentile(0.5));
  const unsigned bpg = blocks_per_group();
  publish_engine_counts(traced_counts, traced_ops, bpg, res);
  res.samples["traced_spans"] = static_cast<double>(s.sampled.count());
  res.samples["spans_dropped"] = dropped;

  Xoshiro256 krng(opt.seed ^ 0xa5a5);
  const KernelCosts k = measure_kernels(region_bytes, krng, res.tally);
  publish_kernels(k, res);
  const EngineCounts& d = traced_counts;
  const double reenc_blocks = d.reencryptions * (bpg - 1);
  publish_attribution(
      (d.reads + d.writes) * (k.crypt_ns + k.mac_ns) +
          reenc_blocks * (2 * k.crypt_batch_ns + k.mac_batch_ns),
      d.reads * k.unpack_ns + (d.writes + reenc_blocks) * k.pack_ns +
          faults1 * k.correct1_ns + faults2 * k.correct2_ns,
      (d.hits + d.probe_hits) * k.verify_hit_ns +
          (d.misses + d.probe_misses) * k.verify_miss_ns +
          d.writes * k.update_ns,
      d.writes * (k.on_write_ns + k.serialize_ns), traced_op_ns, res);
}

/// The first `blocks` blocks of the region. Placements are fixed so the
/// seed changes only the operation stream; the structure under it (which
/// tree-cache sets and shards a hot set maps to) is the same every run.
std::vector<std::uint64_t> hot_set(std::uint64_t blocks) {
  std::vector<std::uint64_t> set(blocks);
  for (std::uint64_t i = 0; i < blocks; ++i) set[i] = i;
  return set;
}

void self_test(SecureMemory& mem, std::uint64_t block, std::uint64_t seed,
               const std::vector<std::uint32_t>& versions, Result& res) {
  // Three flipped bits exceed the 2-bit correction budget: the read must
  // fail, and the tally must count exactly this one failure.
  for (std::size_t bit : {3u, 170u, 411u})
    mem.untrusted().flip_ciphertext_bit(block, bit);
  const ReadResult r = mem.read_block(block);
  const bool ok = status_ok(r.status);
  res.tally.op(ok && r.data == expected_block(seed, block, versions[block]),
               ok ? "read_mismatch" : "read_status");
}

void run_plain(const Options& opt, Result& res) {
  SecureMemoryConfig cfg;
  RwSpec spec;
  if (opt.workload == "kv_hot") {
    // 256 KiB hot set = 64 counter lines: fits the 8 KB verified frontier.
    cfg.size_bytes = opt.region(32);
    spec.read_share = 0.90;
  } else if (opt.workload == "uniform_cold") {
    cfg.size_bytes = opt.region(64);
    spec.read_share = 0.95;
    spec.inject_faults = true;
  } else {  // overflow_storm
    cfg.size_bytes = opt.region(32);
    spec.read_share = 0.20;
    spec.round_robin_writes = true;
  }
  std::unique_ptr<SecureMemory> mem;
  std::vector<std::uint32_t> versions;
  res.e2e["setup_s"] = timed_setups([&] {
    mem.reset();
    mem = std::make_unique<SecureMemory>(cfg);
    versions.assign(mem->num_blocks(), 0);
    prefill(*mem, opt.seed, res.tally);
  });
  const std::uint64_t n = mem->num_blocks();
  if (opt.workload == "kv_hot") {
    spec.reads = hot_set(256 * 1024 / kBlockBytes);
  } else if (opt.workload == "overflow_storm") {
    // One hammered block in each of 64 groups spread over the region;
    // reads cover those groups. Every 128th write to a hammered block
    // overflows its 7-bit delta and re-encrypts the other 63 blocks.
    const std::uint64_t bpg = blocks_per_group();
    const std::uint64_t groups = n / bpg;
    for (std::uint64_t g = 0; g < 64; ++g) {
      const std::uint64_t first = g * (groups / 64) * bpg;
      spec.writes.push_back(first);
      for (std::uint64_t b = first; b < first + bpg; ++b)
        spec.reads.push_back(b);
    }
  }
  run_rw(opt, *mem, {spec}, versions, cfg.size_bytes, res);
  if (opt.self_test)
    self_test(*mem, spec.reads.empty() ? n / 2 : spec.reads[0], opt.seed,
              versions, res);
}

void run_mt(const Options& opt, Result& res) {
  SecureMemoryConfig cfg;
  cfg.size_bytes = opt.region(64);
  constexpr unsigned kShards = 8;
  const unsigned clients = std::min(4u, host_cpus());
  std::unique_ptr<ShardedSecureMemory> mem;
  std::vector<std::uint32_t> versions;
  res.e2e["setup_s"] = timed_setups([&] {
    mem.reset();
    mem = std::make_unique<ShardedSecureMemory>(cfg, kShards);
    versions.assign(mem->num_blocks(), 0);
    prefill(*mem, opt.seed, res.tally);
  });
  // A 1 MiB hot set of whole routing granules, spread evenly over the
  // region so every shard owns part of it. Each client reads and writes
  // only its own granules (so expected plaintexts need no locking), and
  // every client's granules still span every shard, so the clients
  // contend for the shard locks but never write the same counter line.
  const std::uint64_t n = mem->num_blocks();
  const std::uint64_t granule = mem->granule_blocks();
  const std::uint64_t hot_granules = kMiB / kBlockBytes / granule;
  const std::uint64_t stride = n / granule / hot_granules;
  std::vector<RwSpec> specs(clients);
  for (std::uint64_t g = 0; g < hot_granules; ++g) {
    // Offsetting by g % stride puts hot granule g on shard g % kShards
    // even when the stride is a multiple of the shard count.
    const std::uint64_t first = (g * stride + g % stride) * granule;
    for (std::uint64_t b = first; b < first + granule; ++b)
      specs[(g / kShards) % clients].reads.push_back(b);
  }
  for (RwSpec& s : specs) s.read_share = 0.95;
  run_rw(opt, *mem, specs, versions, cfg.size_bytes / kShards, res);
}

// ---------------------------------------------------------------------
// checkpoint: delta and full snapshot replication between two engines.
// ---------------------------------------------------------------------

/// ostream sink over a caller-owned fixed buffer.
class FixedSink final : public std::streambuf {
 public:
  FixedSink(char* data, std::size_t size) { setp(data, data + size); }
  std::size_t written() const {
    return static_cast<std::size_t>(pptr() - pbase());
  }
};

/// istream source over a borrowed buffer.
class MemSource final : public std::streambuf {
 public:
  MemSource(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);  // the get area is never written
    setg(p, p, p + size);
  }
};

/// ostream sink appending to a growable vector (image sizing).
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

void run_checkpoint(const Options& opt, Result& res) {
  SecureMemoryConfig cfg;
  cfg.size_bytes = opt.region(64);
  constexpr unsigned kShards = 8;
  constexpr unsigned kFullEvery = 8;
  constexpr unsigned kCheckBlocks = 1024;
  std::unique_ptr<ShardedSecureMemory> src, replica;
  std::vector<std::uint32_t> versions;
  std::vector<char> image, delta;
  res.e2e["setup_s"] = timed_setups([&] {
    src.reset();
    replica.reset();
    image.clear();
    image.shrink_to_fit();
    src = std::make_unique<ShardedSecureMemory>(cfg, kShards);
    replica = std::make_unique<ShardedSecureMemory>(cfg, kShards);
    versions.assign(src->num_blocks(), 0);
    prefill(*src, opt.seed, res.tally);
    // Size the image with one full save and seed the replica from it:
    // both chains are now aligned, so every later delta applies.
    VectorSink sink(image);
    std::ostream out(&sink);
    res.tally.op(src->save(out) == Status::kOk, "save_status");
    image.shrink_to_fit();
    MemSource source(image.data(), image.size());
    std::istream in(&source);
    res.tally.op(replica->restore(in), "restore_rejected");
  });
  delta.assign(image.size() / 8 + 4096, 0);

  const std::uint64_t n = src->num_blocks();
  Xoshiro256 rng(opt.seed);
  const std::vector<std::uint64_t> hot = hot_set(n / 50);
  const std::uint64_t granule_blocks =
      src->with_shard_exclusive(0, [](SecureMemory& m) {
        return m.delta_granule_blocks();
      });
  const double granules = static_cast<double>(n / granule_blocks);

  SpanLog log(opt.traced() ? kSpanCapacity : 0);
  SpanLog* spans = nullptr;
  std::vector<BlockWrite> batch;
  batch.reserve(256);
  std::uint64_t cycle = 0;
  std::vector<double> delta_bytes, dirty_share;
  double written_blocks = 0, check_reads = 0, fulls = 0, deltas = 0;
  double span_ns[kSpanNameCount] = {};

  auto run_cycle = [&](LatencyHist* hist) {
    const bool full = cycle % kFullEvery == kFullEvery - 1;
    const std::uint64_t op = cycle++;
    const auto c0 = Clock::now();
    const std::uint32_t cycle_span =
        spans ? spans->open(kSpanCycle, ns_since_epoch(c0), SpanLog::kNone, op)
              : SpanLog::kNone;
    auto span = [&](SpanName name, Clock::time_point a, Clock::time_point b) {
      if (!spans) return;
      spans->add(name, ns_since_epoch(a), ns_since_epoch(b), cycle_span, op);
      span_ns[name] += std::chrono::duration<double, std::nano>(b - a).count();
    };

    // 1. Rewrite the hot set in batches of 256.
    for (std::size_t i = 0; i < hot.size();) {
      batch.clear();
      for (; i < hot.size() && batch.size() < 256; ++i) {
        const std::uint64_t b = hot[i];
        batch.push_back(BlockWrite{b, expected_block(opt.seed, b, ++versions[b])});
      }
      res.tally.op(src->write_blocks(batch) == Status::kOk, "write_status");
    }
    const auto w1 = Clock::now();
    span(kSpanWriteBatch, c0, w1);
    if (spans) written_blocks += static_cast<double>(hot.size());

    // 2-4. Replicate: save on the source, restore on the replica.
    std::vector<char>& buf = full ? image : delta;
    if (!full && spans)
      dirty_share.push_back(static_cast<double>(src->dirty_granules()) /
                            granules);
    FixedSink sink(buf.data(), buf.size());
    std::ostream out(&sink);
    const auto s0 = Clock::now();
    const Status saved = full ? src->save(out) : src->save_delta(out);
    const auto s1 = Clock::now();
    res.tally.op(saved == Status::kOk && out.good(), "save_status");
    if (!full && spans) delta_bytes.push_back(static_cast<double>(sink.written()));
    MemSource source(buf.data(), sink.written());
    std::istream in(&source);
    SnapshotTiming timing;
    const auto r0 = Clock::now();
    const bool restored = replica->restore_timed(in, timing);
    const auto r1 = Clock::now();
    res.tally.op(restored, "restore_rejected");
    if (hist) hist->add(ns_between(s0, s1) + ns_between(r0, r1));
    span(full ? kSpanSaveFull : kSpanSaveDelta, s0, s1);
    span(full ? kSpanRestoreFull : kSpanRestoreDelta, r0, r1);
    const auto stage_end = r0 + to_duration(timing.stage_s);
    span(full ? kSpanRestoreFullStage : kSpanRestoreDeltaStage, r0, stage_end);
    span(full ? kSpanRestoreFullCommit : kSpanRestoreDeltaCommit, stage_end, r1);
    if (spans) (full ? fulls : deltas) += 1;

    // 5. Compare source and replica on random blocks, half of them hot.
    for (unsigned k = 0; k < kCheckBlocks; ++k) {
      const std::uint64_t b =
          k % 2 ? hot[rng.next_below(hot.size())] : rng.next_below(n);
      const ReadResult a = src->read_block(b);
      const ReadResult r = replica->read_block(b);
      const DataBlock want = expected_block(opt.seed, b, versions[b]);
      res.tally.op(status_ok(a.status) && a.data == want, "read_mismatch");
      res.tally.op(status_ok(r.status) && r.data == want, "replica_mismatch");
    }
    const auto c1 = Clock::now();
    span(kSpanCheck, r1, c1);
    if (spans) {
      check_reads += 2.0 * kCheckBlocks;
      spans->close(cycle_span, ns_since_epoch(c1));
      span_ns[kSpanCycle] += std::chrono::duration<double, std::nano>(c1 - c0).count();
    }
  };

  const auto warm_end = Clock::now() + to_duration(opt.warmup_s());
  while (Clock::now() < warm_end) run_cycle(nullptr);

  // A slice is one round of kFullEvery cycles (one full replication, the
  // rest deltas), so every slice holds the same mix of work.
  const auto deadline = Clock::now() + to_duration(opt.seconds);
  std::vector<double> plain_rates, traced_rates, p50s;
  EngineCounts traced_counts;
  LatencyHist traced_hist;
  double samples = 0;
  for (unsigned r = 0; Clock::now() < deadline || r < 2; ++r) {
    const bool traced = opt.traced() && r % 2 == 1;
    spans = traced ? &log : nullptr;
    LatencyHist rep_hist;
    const EngineCounts before = EngineCounts::of(*src) + EngineCounts::of(*replica);
    const auto start = Clock::now();
    for (unsigned c = 0; c < kFullEvery; ++c)
      run_cycle(traced ? &traced_hist : &rep_hist);
    (traced ? traced_rates : plain_rates)
        .push_back(kFullEvery / seconds_between(start, Clock::now()));
    if (traced) {
      traced_counts +=
          EngineCounts::of(*src) + EngineCounts::of(*replica) - before;
    } else {
      p50s.push_back(rep_hist.percentile(0.50));
      samples += static_cast<double>(rep_hist.count());
    }
  }
  spans = nullptr;

  res.e2e["ops_per_s"] = quantile(plain_rates, kFastQ);
  res.e2e["op_p50_us"] = quantile(p50s, 1 - kFastQ) / 1e3;
  res.samples["op_latency"] = samples;
  res.samples["rounds"] = static_cast<double>(plain_rates.size());
  res.samples["clients"] = 1;
  if (!opt.traced()) return;

  res.spans_file = spans_path(opt);
  write_spans(res.spans_file, {&log});
  auto& l = res.layers;
  const double cycle_ns = span_ns[kSpanCycle];
  l["trace.op_p50_ns"] = traced_hist.percentile(0.50);
  l["trace.op_p99_ns"] = traced_hist.percentile(0.99);
  l["trace.overhead_share"] = 1.0 - ratio(quantile(traced_rates, kFastQ),
                                          quantile(plain_rates, kFastQ));
  l["engine.read.share"] = ratio(span_ns[kSpanCheck], cycle_ns);
  l["engine.write.share"] = ratio(span_ns[kSpanWriteBatch], cycle_ns);
  l["engine.save_delta.share"] = ratio(span_ns[kSpanSaveDelta], cycle_ns);
  l["engine.restore_delta.share"] = ratio(span_ns[kSpanRestoreDelta], cycle_ns);
  l["engine.restore_delta.stage_share"] =
      ratio(span_ns[kSpanRestoreDeltaStage], span_ns[kSpanRestoreDelta]);
  l["engine.save_full.share"] = ratio(span_ns[kSpanSaveFull], cycle_ns);
  l["engine.restore_full.share"] = ratio(span_ns[kSpanRestoreFull], cycle_ns);
  l["engine.restore_full.stage_share"] =
      ratio(span_ns[kSpanRestoreFullStage], span_ns[kSpanRestoreFull]);
  l["engine.dirty_granule_share"] = median(dirty_share);
  l["engine.delta_bytes_ratio"] =
      median(delta_bytes) / static_cast<double>(image.size());
  l["engine.image_bytes_per_byte"] =
      static_cast<double>(image.size()) / static_cast<double>(cfg.size_bytes);
  res.samples["traced_spans"] = static_cast<double>(log.spans().size());
  res.samples["traced_cycles"] = static_cast<double>(traced_hist.count());
  res.samples["spans_dropped"] = static_cast<double>(log.dropped());

  const EngineCounts& d = traced_counts;
  publish_engine_counts(d, d.reads + d.writes, blocks_per_group(), res);

  // Estimates: source writes run the batched kernels and sync each
  // touched counter line once; a delta restore refreshes the same lines
  // on the replica; a full restore rebuilds and decodes every shard.
  Xoshiro256 krng(opt.seed ^ 0xa5a5);
  const KernelCosts k = measure_kernels(cfg.size_bytes / kShards, krng, res.tally);
  publish_kernels(k, res);
  const double hot_lines = static_cast<double>(hot.size()) / blocks_per_line();
  const double lines_written = written_blocks / blocks_per_line();
  publish_attribution(
      written_blocks * (k.crypt_batch_ns + k.mac_batch_ns) +
          check_reads * (k.crypt_ns + k.mac_ns),
      written_blocks * k.pack_ns + check_reads * k.unpack_ns,
      (lines_written + deltas * hot_lines) * k.update_ns +
          check_reads * k.verify_miss_ns + fulls * kShards * k.rebuild_ns,
      written_blocks * k.on_write_ns + lines_written * k.serialize_ns +
          fulls * kShards * k.deserialize_all_ns,
      cycle_ns, res);
}

// ---------------------------------------------------------------------
// fig8_sim: the Figure 8 timing model, 7 apps x 5 variants.
// ---------------------------------------------------------------------

SystemConfig fig8_config(const Variant& v, std::uint64_t refs,
                         std::uint64_t seed) {
  SystemConfig config;
  config.protection = v.protection;
  config.scheme = v.scheme;
  config.engine.mac_placement = v.placement;
  config.warmup_refs = refs / 3;
  config.seed = seed;
  return config;  // otherwise paper Table 1, as bench_fig8_performance
}

void run_fig8(const Options& opt, Result& res) {
  // 50k refs per core (bench_fig8_performance runs 150k) keeps a pass
  // near 1.5 s, so a 10 s run times every simulation about six times.
  const std::uint64_t refs = opt.quick ? 3000 : 50000;
  constexpr std::size_t kApps = std::size(kFig8Apps);
  constexpr std::size_t kVars = std::size(kVariants);

  // Set-up: build every (app, variant) simulator once.
  res.e2e["setup_s"] = timed_setups([&] {
    for (const char* app : kFig8Apps)
      for (const Variant& v : kVariants) {
        SystemSimulator sim(fig8_config(v, refs, opt.seed), profile_by_name(app));
        keep(sim.scheme());
      }
  });

  struct Cell {
    double ipc = 0, dram = 0, reenc = 0, meta_hits = 0, meta_misses = 0;
    double best_ns = std::numeric_limits<double>::infinity();  ///< untraced
    double traced_ns = 0;
  };
  Cell cells[kApps][kVars];
  const double run_refs =
      static_cast<double>((refs + refs / 3) * SystemConfig{}.cores);
  bool have_ipc = false;
  unsigned passes = 0;
  SpanLog log(opt.traced() ? 4096 : 0);
  std::uint64_t op = 0;

  auto pass = [&](bool traced) {
    const auto p0 = Clock::now();
    const std::uint32_t pass_span =
        traced ? log.open(kSpanSimPass, ns_since_epoch(p0), SpanLog::kNone, op)
               : SpanLog::kNone;
    for (std::size_t a = 0; a < kApps; ++a)
      for (std::size_t v = 0; v < kVars; ++v) {
        SystemSimulator sim(fig8_config(kVariants[v], refs, opt.seed),
                            profile_by_name(kFig8Apps[a]));
        const auto t0 = Clock::now();
        const SimResult r = sim.run(refs);
        const auto t1 = Clock::now();
        const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
        Cell& c = cells[a][v];
        if (traced) {
          log.add(kSpanSimRun, ns_since_epoch(t0), ns_since_epoch(t1),
                  pass_span, op);
          c.traced_ns += ns;
        } else {
          c.best_ns = std::min(c.best_ns, ns);
        }
        ++op;
        const bool valid = std::isfinite(r.ipc) && r.ipc > 0;
        res.tally.op(valid && (!have_ipc || c.ipc == r.ipc),
                     valid ? "ipc_nondeterministic" : "ipc_not_finite");
        if (!have_ipc) {
          c.ipc = r.ipc;
          c.dram = static_cast<double>(r.dram_reads + r.dram_writes);
          c.reenc = static_cast<double>(r.reencryptions);
          c.meta_hits = static_cast<double>(
              sim.stats().counter_value("engine.counter_hits"));
          c.meta_misses = static_cast<double>(
              sim.stats().counter_value("engine.counter_misses"));
        }
      }
    have_ipc = true;
    passes += !traced;
    const auto p1 = Clock::now();
    log.close(pass_span, ns_since_epoch(p1));
    return seconds_between(p0, p1);
  };

  // Whole passes only, so every run times the same set of simulations:
  // as many as fit in --seconds, at least one (two when traced: one
  // untraced baseline, one traced).
  const auto start = Clock::now();
  double last = pass(false);
  while (seconds_between(start, Clock::now()) + last <= opt.seconds &&
         !opt.traced())
    last = pass(false);
  if (opt.traced()) pass(true);

  // Each simulation's fastest untraced pass gives its host time: the
  // simulated work is identical in every pass, so the fastest pass is the
  // one least disturbed by other processes.
  LatencyHist per_ref;  // ps per simulated reference, one sample per cell
  double best_ns = 0, traced_ns = 0;
  for (const auto& row : cells)
    for (const Cell& c : row) {
      per_ref.add(static_cast<std::uint64_t>(c.best_ns / run_refs * 1e3));
      best_ns += c.best_ns;
      traced_ns += c.traced_ns;
    }

  // Figure 8 rows, as bench_fig8_performance --csv prints them.
  for (std::size_t a = 0; a < kApps; ++a) {
    char row[160];
    const double base = cells[a][0].ipc;
    std::snprintf(row, sizeof(row), "csv,%s,%.4f,%.4f,%.4f,%.4f", kFig8Apps[a],
                  cells[a][1].ipc / base, cells[a][2].ipc / base,
                  cells[a][3].ipc / base, cells[a][4].ipc / base);
    res.fig8_csv.push_back(row);
  }

  res.e2e["ops_per_s"] = kApps * kVars * run_refs / best_ns * 1e9;
  res.e2e["op_p50_us"] = per_ref.percentile(0.50) / 1e6;
  res.samples["op_latency"] = static_cast<double>(per_ref.count());
  res.samples["passes"] = passes;
  res.samples["clients"] = 1;
  res.samples["refs_per_core"] = static_cast<double>(refs);
  if (!opt.traced()) return;

  res.spans_file = spans_path(opt);
  write_spans(res.spans_file, {&log});
  auto& l = res.layers;
  LatencyHist traced_per_ref;  // ps per simulated reference
  for (const Span& sp : log.spans())
    if (sp.name == kSpanSimRun)
      traced_per_ref.add(static_cast<std::uint64_t>(
          static_cast<double>(sp.end_ns - sp.start_ns) / run_refs * 1e3));
  l["trace.op_p50_ns"] = traced_per_ref.percentile(0.50) / 1e3;
  l["trace.op_p99_ns"] = traced_per_ref.percentile(0.99) / 1e3;
  l["trace.overhead_share"] = 1.0 - ratio(best_ns, traced_ns);
  for (std::size_t v = 0; v < kVars; ++v) {
    const std::string base = std::string("sim.") + kVariants[v].name;
    double ns_v = 0, dram_v = 0, reenc_v = 0, hits = 0, misses = 0;
    double log_norm = 0;
    for (std::size_t a = 0; a < kApps; ++a) {
      const Cell& c = cells[a][v];
      ns_v += c.best_ns;
      dram_v += c.dram;
      reenc_v += c.reenc;
      hits += c.meta_hits;
      misses += c.meta_misses;
      log_norm += std::log(c.ipc / cells[a][0].ipc);
    }
    const double refs_v = kApps * run_refs;
    l[base + ".mrefs_per_s"] = refs_v / ns_v * 1e3;
    l[base + ".dram_per_kref"] = 1e3 * dram_v / refs_v;
    if (kVariants[v].protection == Protection::kNone) continue;
    l[base + ".ipc_norm"] = std::exp(log_norm / kApps);
    l[base + ".reencryptions"] = reenc_v;
    l[std::string("metacache.") + kVariants[v].name + ".hit_ratio"] =
        ratio(hits, hits + misses);
  }
  res.samples["traced_spans"] = static_cast<double>(log.spans().size());

  Xoshiro256 krng(opt.seed ^ 0xa5a5);
  publish_kernels(measure_kernels(32 * kMiB, krng, res.tally), res);
  // No functional engine runs here: all host time is outside its kernels.
  publish_attribution(0, 0, 0, 0, 1, res);
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

std::string secmem_env() {
  // Kill switches and overrides the engines sample at construction.
  std::string out;
  for (const char* name :
       {"SECMEM_TREE_CACHE", "SECMEM_SEQLOCK", "SECMEM_BATCH_REENC",
        "SECMEM_BATCH_SNAPSHOT", "SECMEM_DELTA_SNAPSHOT",
        "SECMEM_FORCE_PORTABLE"}) {
    if (const char* v = std::getenv(name)) {
      if (!out.empty()) out += ' ';
      out += std::string(name) + "=" + v;
    }
  }
  return out;
}

void emit(const Options& opt, Result& res) {
  // A metric that is not a finite number is a failed check.
  for (auto* m : {&res.e2e, &res.layers})
    for (auto& [name, v] : *m)
      if (!std::isfinite(v)) {
        v = 0;
        res.tally.op(false, "metric_not_finite");
      }
  if (!opt.traced()) res.e2e["peak_rss_mib"] = peak_rss_mib();
  const Tally& t = res.tally;
  std::string failures = "{";
  for (const auto& [kind, n] : t.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(kind) + ": " + std::to_string(n);
  }
  failures += "}";
  std::string csv = "[";
  for (const std::string& row : res.fig8_csv) {
    if (csv.size() > 1) csv += ", ";
    csv += json_string(row);
  }
  csv += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"quick\": %s, "
      "\"traced\": %s,\n"
      " \"fingerprint\": {\"cpu\": %s, \"nproc\": %u, \"crypto_backend\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"env\": %s},\n"
      " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": %s,\n"
      " \"samples\": %s,\n \"e2e\": %s,\n \"layers\": %s,\n"
      " \"fig8_csv\": %s, \"spans_file\": %s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.quick ? "true" : "false",
      opt.traced() ? "true" : "false", json_string(cpu_model()).c_str(),
      host_cpus(), json_string(crypto_backend_summary()).c_str(),
      json_string(SECMEM_E2E_COMPILER).c_str(),
      json_string(SECMEM_E2E_BUILD_TYPE).c_str(),
      json_string(secmem_env()).c_str(), t.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed), failures.c_str(),
      json_object(res.samples).c_str(), json_object(res.e2e).c_str(),
      json_object(res.layers).c_str(), csv.c_str(),
      json_string(res.spans_file).c_str());
}

constexpr const char* kWorkloads[] = {"kv_hot",   "uniform_cold",
                                      "overflow_storm", "mt_mixed",
                                      "checkpoint", "fig8_sim"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--quick]\n"
               "          [--trace-dir DIR] [--self-test]\n"
               "workloads: kv_hot uniform_cold overflow_storm mt_mixed "
               "checkpoint fig8_sim\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        seconds_given = true;
      } else if (arg == "--quick") {
        opt.quick = true;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else if (arg == "--self-test") {
        opt.self_test = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (opt.quick && !seconds_given) opt.seconds = 1.0;
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
          std::end(kWorkloads) ||
      !(opt.seconds > 0)) {
    return usage(argv[0]);
  }
  const bool plain = opt.workload == "kv_hot" ||
                     opt.workload == "uniform_cold" ||
                     opt.workload == "overflow_storm";
  if (opt.self_test && !plain) {
    std::fprintf(stderr, "error: --self-test needs a single-engine workload\n");
    return 2;
  }

  Result res;
  zero_workload_layers(res);
  try {
    if (plain)
      run_plain(opt, res);
    else if (opt.workload == "mt_mixed")
      run_mt(opt, res);
    else if (opt.workload == "checkpoint")
      run_checkpoint(opt, res);
    else
      run_fig8(opt, res);
    emit(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return res.tally.failed == 0 ? 0 : 1;
}
