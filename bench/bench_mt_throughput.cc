// Multithreaded throughput scaling: the single-mutex facade vs the
// sharded engine (and its batch API), at 1/2/4/8 threads.
//
// Every read is the real datapath — AES-CTR keystream, Carter-Wegman
// verify, Bonsai counter authentication — so the crypto dominates and
// the experiment isolates what the ISSUE targets: whether the locking
// architecture lets threads do that work in parallel. Results are
// emitted as JSON (stdout + a *.bench.json file next to the binary, or
// --out FILE) so CI can trend them.
//
// A hot-set phase runs first: a single-threaded plain engine re-reading a
// small working set, with the verified-frontier tree cache off (eager
// root-reaching walks) vs on (walks truncate at the frontier; hot counter
// lines verify by compare). This isolates the tree-walk cost the cache
// removes, the functional analog of the paper's metadata-cache argument.
//
// A final 95/5 read-mostly phase runs the sharded engine with writers
// mixed in, so readers take the seqlock shared-read fast path while
// shard generations keep moving.
//
//   bench_mt_throughput [--mib N] [--shards N] [--reads-per-thread N]
//                       [--hot-mib N] [--hot-blocks N] [--hot-reads N]
//                       [--out FILE]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "common/rng.h"
#include "engine/concurrent.h"
#include "engine/sharded_memory.h"

namespace {

using namespace secmem;

struct Sample {
  std::string engine;
  unsigned threads;
  std::uint64_t total_reads;
  double seconds;
  double ops_per_sec;
};

/// Fan `threads` workers out over `engine`, each issuing
/// `reads_per_thread` verified single-block reads at uniformly random
/// block ids; returns wall seconds for the whole fan-out.
template <typename Engine>
double timed_reads(Engine& engine, unsigned threads,
                   std::uint64_t reads_per_thread, std::atomic<int>& bad) {
  const std::uint64_t blocks = engine.num_blocks();
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&engine, &bad, blocks, reads_per_thread, t] {
      Xoshiro256 rng(0xbe7c + t);
      for (std::uint64_t i = 0; i < reads_per_thread; ++i) {
        const auto result = engine.read_block(rng.next_below(blocks));
        if (result.status != ReadStatus::kOk) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Read-mostly 95/5 mix — the seqlock fast path's target scenario: 95%
/// verified single-block reads (shared lock side) with a 5% sprinkle of
/// writes so shard generations keep moving and the exclusive side stays
/// exercised. Reads check status only; concurrent writers make content
/// nondeterministic by design.
template <typename Engine>
double timed_mixed(Engine& engine, unsigned threads,
                   std::uint64_t ops_per_thread, std::atomic<int>& bad) {
  const std::uint64_t blocks = engine.num_blocks();
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&engine, &bad, blocks, ops_per_thread, t] {
      Xoshiro256 rng(0x95f5 + t);
      DataBlock block{};
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        if (i % 20 == 19) {
          block[0] = static_cast<std::uint8_t>(i);
          if (engine.write_block(rng.next_below(blocks), block) != Status::kOk)
            ++bad;
        } else {
          const auto result = engine.read_block(rng.next_below(blocks));
          if (result.status != ReadStatus::kOk) ++bad;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Same workload through the batch API: 64-block shard-sorted batches,
/// one lock acquisition per shard per batch.
double timed_batch_reads(ShardedSecureMemory& engine, unsigned threads,
                         std::uint64_t reads_per_thread,
                         std::atomic<int>& bad) {
  const std::uint64_t blocks = engine.num_blocks();
  constexpr std::uint64_t kBatch = 64;
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&engine, &bad, blocks, reads_per_thread, t] {
      Xoshiro256 rng(0xba7c + t);
      std::vector<std::uint64_t> batch(kBatch);
      for (std::uint64_t done = 0; done < reads_per_thread;
           done += kBatch) {
        for (std::uint64_t& b : batch) b = rng.next_below(blocks);
        for (const auto& result : engine.read_blocks(batch))
          if (result.status != ReadStatus::kOk) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Single-threaded hot-set reads on a plain engine: `reads` verified
/// reads uniformly over the first `hot_blocks` blocks.
double timed_hot_reads(SecureMemory& engine, std::uint64_t hot_blocks,
                       std::uint64_t reads, std::atomic<int>& bad) {
  Xoshiro256 rng(0x407);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < reads; ++i) {
    const auto result = engine.read_block(rng.next_below(hot_blocks));
    if (result.status != ReadStatus::kOk) ++bad;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

void emit_json(std::FILE* out, const std::vector<Sample>& samples,
               std::uint64_t mib, unsigned shards,
               std::uint64_t reads_per_thread) {
  std::fprintf(out,
               "{\n  \"bench\": \"mt_throughput\",\n"
               "  \"region_mib\": %llu,\n  \"shards\": %u,\n"
               "  \"reads_per_thread\": %llu,\n  \"results\": [\n",
               static_cast<unsigned long long>(mib), shards,
               static_cast<unsigned long long>(reads_per_thread));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"threads\": %u, "
                 "\"total_reads\": %llu, \"seconds\": %.4f, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 s.engine.c_str(), s.threads,
                 static_cast<unsigned long long>(s.total_reads), s.seconds,
                 s.ops_per_sec, i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t mib = 8;
  unsigned shards = 8;
  std::uint64_t reads_per_thread = 20000;
  // Hot-set phase defaults: a 32 MiB region is deep enough (3 off-chip
  // MAC levels with the 3 KB on-chip root budget) that eager walks carry
  // real cost, and 1024 hot blocks = 16 delta counter lines — the whole
  // frontier fits in the default 8 KB cache.
  std::uint64_t hot_mib = 32;
  std::uint64_t hot_blocks = 1024;
  std::uint64_t hot_reads = 200000;
  std::string out_path =
      secmem_bench::binary_dir_path("mt_throughput.bench.json");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mib") {
      mib = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--shards") {
      shards = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--reads-per-thread") {
      reads_per_thread = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--hot-mib") {
      hot_mib = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--hot-blocks") {
      hot_blocks = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--hot-reads") {
      hot_reads = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--mib N] [--shards N] "
                   "[--reads-per-thread N] [--hot-mib N] [--hot-blocks N] "
                   "[--hot-reads N] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  SecureMemoryConfig config;
  config.size_bytes = mib << 20;
  std::optional<ConcurrentSecureMemory> single_mem;
  std::optional<ShardedSecureMemory> sharded_mem;
  try {
    single_mem.emplace(config);
    sharded_mem.emplace(config, shards);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  ConcurrentSecureMemory& single = *single_mem;
  ShardedSecureMemory& sharded = *sharded_mem;

  std::atomic<int> bad{0};

  // Touch a spread of blocks so reads hit written (non-zero) lines too.
  Xoshiro256 rng(7);
  for (unsigned i = 0; i < 512; ++i) {
    DataBlock block{};
    block[0] = static_cast<std::uint8_t>(i);
    const std::uint64_t target = rng.next_below(single.num_blocks());
    bad += single.write_block(target, block) != Status::kOk;
    bad += sharded.write_block(target, block) != Status::kOk;
  }

  std::vector<Sample> samples;

  // Phase 0: hot-set reads, eager vs verified-frontier, single thread.
  {
    SecureMemoryConfig hot_config;
    hot_config.size_bytes = hot_mib << 20;
    SecureMemoryConfig eager_config = hot_config;
    eager_config.tree_cache_kb = 0;
    SecureMemory eager(eager_config);
    SecureMemory cached(hot_config);
    hot_blocks = std::min(hot_blocks, eager.num_blocks());
    DataBlock block{};
    for (std::uint64_t b = 0; b < hot_blocks; ++b) {
      block[0] = static_cast<std::uint8_t>(b);
      bad += eager.write_block(b, block) != Status::kOk;
      bad += cached.write_block(b, block) != Status::kOk;
    }
    const double eager_s = timed_hot_reads(eager, hot_blocks, hot_reads, bad);
    const double cached_s =
        timed_hot_reads(cached, hot_blocks, hot_reads, bad);
    samples.push_back(
        {"hot-eager", 1, hot_reads, eager_s, hot_reads / eager_s});
    samples.push_back(
        {"hot-cached", 1, hot_reads, cached_s, hot_reads / cached_s});
    const EngineStats cs = cached.stats();
    std::fprintf(stderr,
                 "hot set (%llu blocks, %llu MiB region): eager %.0f ops/s "
                 "| cached %.0f ops/s (%.2fx; %llu cache hits)\n",
                 static_cast<unsigned long long>(hot_blocks),
                 static_cast<unsigned long long>(hot_mib),
                 hot_reads / eager_s, hot_reads / cached_s,
                 eager_s / cached_s,
                 static_cast<unsigned long long>(cs.tree_cache_hits));
  }

  const unsigned thread_counts[] = {1, 2, 4, 8};
  for (const unsigned threads : thread_counts) {
    const std::uint64_t total = threads * reads_per_thread;
    const double base_s = timed_reads(single, threads, reads_per_thread, bad);
    samples.push_back(
        {"single-mutex", threads, total, base_s, total / base_s});
    const double shard_s =
        timed_reads(sharded, threads, reads_per_thread, bad);
    samples.push_back(
        {"sharded", threads, total, shard_s, total / shard_s});
    const double batch_s =
        timed_batch_reads(sharded, threads, reads_per_thread, bad);
    samples.push_back(
        {"sharded-batch", threads, total, batch_s, total / batch_s});
    std::fprintf(stderr,
                 "%u thread(s): single %.0f ops/s | sharded %.0f ops/s "
                 "(%.2fx) | batch %.0f ops/s (%.2fx)\n",
                 threads, total / base_s, total / shard_s,
                 base_s / shard_s, total / batch_s, base_s / batch_s);
  }

  // Phase 2: the 95/5 read-mostly mix on the sharded engine.
  for (const unsigned threads : thread_counts) {
    const std::uint64_t total = threads * reads_per_thread;
    const double seq_s = timed_mixed(sharded, threads, reads_per_thread, bad);
    samples.push_back(
        {"mixed95-seqlock", threads, total, seq_s, total / seq_s});
    std::fprintf(stderr, "95/5 mix, %u thread(s): seqlock %.0f ops/s\n",
                 threads, total / seq_s);
  }
  if (bad.load() != 0) {
    std::fprintf(stderr, "FAIL: %d reads did not verify\n", bad.load());
    return 1;
  }

  // Unified observability export: the engines' own metrics (lock-free
  // per-shard cells aggregated on read) plus the throughput samples, in
  // the same registry-JSON format every other bench emits.
  secmem_bench::MetricsDump metrics("mt_throughput");
  single.publish_metrics(metrics.registry(), "single");
  sharded.publish_metrics(metrics.registry(), "sharded");
  for (const Sample& s : samples)
    metrics.registry()
        .scalar(metric_path({"bench", s.engine,
                             "t" + std::to_string(s.threads), "ops_per_sec"}))
        .sample(s.ops_per_sec);
  if (!metrics.write()) return 1;

  emit_json(stdout, samples, mib, shards, reads_per_thread);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f) {
      emit_json(f, samples, mib, shards, reads_per_thread);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
  }
  return 0;
}
