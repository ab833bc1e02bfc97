// secmem-sim — command-line driver for the full-system simulator.
//
// Examples:
//   secmem-sim --workload canneal --scheme delta --mac ecc --refs 200000
//   secmem-sim --workload facesim --none            # unencrypted baseline
//   secmem-sim --trace my.trace --scheme split --stats
//   secmem-sim --list-workloads
//
// Prints cycles, IPC, DRAM traffic and counter events; --stats dumps the
// full counter registry (cache hit rates, per-channel DRAM behaviour,
// metadata traffic, ...).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/secure_memory_like.h"
#include "engine/sharded_memory.h"
#include "sim/system_sim.h"
#include "sim/trace.h"

namespace {

using namespace secmem;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --workload NAME     PARSEC-like profile (see --list-workloads)\n"
      "  --trace FILE        drive cores from a trace file instead\n"
      "  --scheme KIND       mono | split | delta | dual   (default delta)\n"
      "  --mac PLACEMENT     ecc | separate                (default ecc)\n"
      "  --none              disable protection (baseline run)\n"
      "  --refs N            references per core            (default 100000)\n"
      "  --warmup N          warm-up references per core    (default refs/3)\n"
      "  --protected-mb N    protected region size in MB    (default 512)\n"
      "  --seed N            workload seed                  (default 42)\n"
      "  --stats             dump the full statistics registry\n"
      "  --metrics-json F    write the statistics registry as JSON to F\n"
      "                      (engine metrics in engine mode, simulator\n"
      "                      registry in timing mode)\n"
      "  --list-workloads    print available profiles and exit\n"
      "  --engine KIND       run a functional engine instead of the timing\n"
      "                      simulator: plain | sharded (default sharded);\n"
      "                      multithreaded workload-shaped read/write mix\n"
      "                      (default region 16MB unless --protected-mb)\n"
      "  --shards N          shard count >= 1 for --engine sharded (implies\n"
      "                      it; default 8; 1 = one lock for the region)\n"
      "  --threads N         worker threads >= 1 in engine mode (default 4;\n"
      "                      forced to 1 for --engine plain)\n"
      "  --tree-cache-kb N   verified-frontier tree cache per engine/shard\n"
      "                      in KB; 0 = eager tree walks  (default 8)\n"
      "  --delta-save FILE   engine mode: after the run, seal a full base\n"
      "                      image, re-dirty the hot set, and write the\n"
      "                      incremental delta image to FILE (implies\n"
      "                      --engine)\n"
      "integer values are plain decimal; anything else exits with status 2\n",
      argv0);
}

/// Parse the decimal value of integer flag `flag`: digits only, in
/// [`min`, `max`]. Anything else ("off", "8x", "-1", "", an overflow, a
/// 0 where the flag needs at least 1) prints an error and exits with
/// status 2 — a typo must never silently run a different configuration.
std::uint64_t parse_uint(const std::string& flag, const char* text,
                         std::uint64_t min, std::uint64_t max) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min || value > max) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 flag.c_str(), static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    std::exit(2);
  }
  return value;
}

/// Write the registry's JSON export to `path`; false (with a message on
/// stderr) if the file cannot be written.
bool write_metrics_json(const StatRegistry& registry,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  registry.write_json(out);
  return out.good();
}

/// Engine mode: drive a functional engine — selected by EngineKind via the
/// shared SecureMemoryLike interface — with a workload-shaped access mix
/// (the profile's working set and write fraction) and report aggregate
/// throughput plus engine statistics — the operational counterpart of the
/// cycle-level simulation.
int run_functional_engine(const SystemConfig& config,
                          const WorkloadProfile& profile, EngineKind kind,
                          unsigned shards, unsigned threads,
                          std::uint64_t refs_per_thread, bool dump_stats,
                          const std::string& metrics_json,
                          unsigned tree_cache_kb,
                          const std::string& delta_save_path) {
  SecureMemoryConfig mem_config;
  mem_config.size_bytes = config.protected_bytes;
  mem_config.scheme = config.scheme;
  mem_config.mac_placement = config.engine.mac_placement;
  mem_config.tree_cache_kb = tree_cache_kb;
  const std::unique_ptr<SecureMemoryLike> memory =
      make_engine(mem_config, kind, shards);

  const std::uint64_t hot_blocks =
      std::clamp<std::uint64_t>(profile.working_set_bytes / 64, 64,
                                memory->num_blocks());
  const double write_fraction = profile.write_fraction;

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(config.seed + t);
      DataBlock block_data{};
      block_data[0] = static_cast<std::uint8_t>(t);
      for (std::uint64_t i = 0; i < refs_per_thread; ++i) {
        const std::uint64_t block = rng.next_below(hot_blocks);
        if (rng.chance(write_fraction)) {
          if (memory->write_block(block, block_data) != Status::kOk)
            ++failures;
        } else if (memory->read_block(block).status != ReadStatus::kOk) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  const EngineStats stats = memory->stats();
  const std::uint64_t total_ops = threads * refs_per_thread;
  std::printf("workload        %s (functional engine)\n",
              profile.name.c_str());
  std::printf("protection      %s + %s\n",
              counter_scheme_kind_name(config.scheme),
              mem_config.mac_placement == MacPlacement::kEccLane
                  ? "MAC-in-ECC"
                  : "separate MACs");
  std::printf("engine          %s\n", engine_kind_name(kind));
  if (kind == EngineKind::kSharded)
    std::printf("shards          %u\n", shards ? shards : 8);
  std::printf("threads         %u\n", threads);
  std::printf("region          %llu MB\n",
              static_cast<unsigned long long>(
                  mem_config.size_bytes >> 20));
  std::printf("ops             %llu\n",
              static_cast<unsigned long long>(total_ops));
  std::printf("seconds         %.3f\n", elapsed.count());
  std::printf("ops/sec         %.0f\n", total_ops / elapsed.count());
  std::printf("reads           %llu\n",
              static_cast<unsigned long long>(stats.reads));
  std::printf("writes          %llu\n",
              static_cast<unsigned long long>(stats.writes));
  std::printf("re-encryptions  %llu\n",
              static_cast<unsigned long long>(stats.group_reencryptions));
  if (dump_stats) {
    std::printf("mac evals       %llu\n",
                static_cast<unsigned long long>(stats.mac_evaluations));
    std::printf("violations      %llu\n",
                static_cast<unsigned long long>(stats.integrity_violations));
    std::printf("tree-cache      %llu hits / %llu misses\n",
                static_cast<unsigned long long>(stats.tree_cache_hits),
                static_cast<unsigned long long>(stats.tree_cache_misses));
  }
  if (!delta_save_path.empty()) {
    // Seal a full base image (aligns the engine's snapshot chain), touch
    // the hot set again, then emit the incremental image: the on-disk
    // artifact a crash/restore loop would ship per checkpoint.
    std::stringstream base;
    if (memory->save(base) != Status::kOk) {
      std::fprintf(stderr, "error: base save failed\n");
      return 1;
    }
    Xoshiro256 rng(config.seed ^ 0xde17a);
    DataBlock block_data{};
    block_data[0] = 0xd1;
    for (unsigned i = 0; i < 1024; ++i) {
      if (memory->write_block(rng.next_below(hot_blocks), block_data) !=
          Status::kOk)
        ++failures;
    }
    std::ofstream delta_out(delta_save_path, std::ios::binary);
    if (!delta_out || memory->save_delta(delta_out) != Status::kOk ||
        !delta_out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   delta_save_path.c_str());
      return 1;
    }
    const auto base_bytes = static_cast<unsigned long long>(base.tellp());
    const auto delta_bytes =
        static_cast<unsigned long long>(delta_out.tellp());
    std::printf("full image      %llu bytes\n", base_bytes);
    std::printf("delta image     %llu bytes -> %s (%.1fx smaller)\n",
                delta_bytes, delta_save_path.c_str(),
                delta_bytes ? static_cast<double>(base_bytes) / delta_bytes
                            : 0.0);
  }
  if (!metrics_json.empty()) {
    StatRegistry registry;
    memory->publish_metrics(registry);
    if (!write_metrics_json(registry, metrics_json)) return 1;
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "error: %llu reads failed verification\n",
                 static_cast<unsigned long long>(failures.load()));
    return 1;
  }
  return 0;
}

bool parse_scheme(const std::string& text, CounterSchemeKind& out) {
  if (text == "mono" || text == "monolithic") {
    out = CounterSchemeKind::kMonolithic56;
  } else if (text == "split") {
    out = CounterSchemeKind::kSplit;
  } else if (text == "delta") {
    out = CounterSchemeKind::kDelta;
  } else if (text == "dual") {
    out = CounterSchemeKind::kDualDelta;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "canneal";
  std::string trace_path;
  SystemConfig config;
  std::uint64_t refs = 100000;
  std::uint64_t warmup = ~0ULL;  // sentinel: default refs/3
  bool dump_stats = false;
  std::string metrics_json;
  bool engine_mode = false;
  EngineKind engine_kind = EngineKind::kSharded;
  unsigned shards = 8;
  unsigned threads = 4;
  unsigned tree_cache_kb = SecureMemoryConfig{}.tree_cache_kb;
  bool protected_mb_given = false;
  std::string delta_save_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--scheme") {
      if (!parse_scheme(value(), config.scheme)) {
        std::fprintf(stderr, "unknown scheme\n");
        return 2;
      }
    } else if (arg == "--mac") {
      const std::string placement = value();
      if (placement == "ecc") {
        config.engine.mac_placement = MacPlacement::kEccLane;
      } else if (placement == "separate") {
        config.engine.mac_placement = MacPlacement::kSeparate;
      } else {
        std::fprintf(stderr, "unknown MAC placement\n");
        return 2;
      }
    } else if (arg == "--none") {
      config.protection = Protection::kNone;
    } else if (arg == "--refs") {
      refs = parse_uint(arg, value(), 0, ~0ULL);
    } else if (arg == "--warmup") {
      warmup = parse_uint(arg, value(), 0, ~0ULL);
    } else if (arg == "--protected-mb") {
      config.protected_bytes = parse_uint(arg, value(), 0, ~0ULL >> 20) << 20;
      protected_mb_given = true;
    } else if (arg == "--engine") {
      const char* kind = value();
      if (!parse_engine_kind(kind, engine_kind)) {
        std::fprintf(stderr,
                     "error: unknown engine kind '%s' (expected plain | "
                     "sharded)\n",
                     kind);
        return 2;
      }
      engine_mode = true;
    } else if (arg == "--shards") {
      shards = static_cast<unsigned>(parse_uint(arg, value(), 1, UINT_MAX));
      engine_mode = true;
      engine_kind = EngineKind::kSharded;
    } else if (arg == "--metrics-json") {
      metrics_json = value();
    } else if (arg == "--threads") {
      threads = static_cast<unsigned>(parse_uint(arg, value(), 1, UINT_MAX));
    } else if (arg == "--tree-cache-kb") {
      tree_cache_kb =
          static_cast<unsigned>(parse_uint(arg, value(), 0, UINT_MAX));
      engine_mode = true;
    } else if (arg == "--delta-save") {
      delta_save_path = value();
      engine_mode = true;
    } else if (arg == "--seed") {
      config.seed = parse_uint(arg, value(), 0, ~0ULL);
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--list-workloads") {
      for (const WorkloadProfile& profile : parsec_profiles()) {
        std::printf("%-14s ws=%lluMB gap=%u write=%.2f\n",
                    profile.name.c_str(),
                    static_cast<unsigned long long>(
                        profile.working_set_bytes >> 20),
                    profile.mean_gap, profile.write_fraction);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  config.warmup_refs = (warmup == ~0ULL) ? refs / 3 : warmup;

  try {
    if (engine_mode) {
      // Functional-engine mode. A full-crypto region is far more
      // expensive to initialize than the timing model's, so the default
      // size drops to 16MB unless the caller sized it.
      if (!protected_mb_given) config.protected_bytes = 16ULL << 20;
      // SecureMemory has no internal locking; never drive it from more
      // than one thread.
      if (engine_kind == EngineKind::kPlain) threads = 1;
      return run_functional_engine(config, profile_by_name(workload),
                                   engine_kind, shards, threads, refs,
                                   dump_stats, metrics_json, tree_cache_kb,
                                   delta_save_path);
    }
    const WorkloadProfile& profile = profile_by_name(workload);
    SystemSimulator sim(config, profile);
    const SimResult result =
        trace_path.empty()
            ? sim.run(refs)
            : sim.run_trace(load_trace_file(trace_path, config.cores));

    const std::string source =
        trace_path.empty() ? workload : workload + " (trace: " + trace_path + ")";
    const std::string protection =
        config.protection == Protection::kNone
            ? "none"
            : std::string(counter_scheme_kind_name(config.scheme)) + " + " +
                  (config.engine.mac_placement == MacPlacement::kEccLane
                       ? "MAC-in-ECC"
                       : "separate MACs");
    std::printf("workload        %s\n", source.c_str());
    std::printf("protection      %s\n", protection.c_str());
    std::printf("cycles          %llu\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("instructions    %llu\n",
                static_cast<unsigned long long>(result.instructions));
    std::printf("IPC             %.4f\n", result.ipc);
    std::printf("dram reads      %llu\n",
                static_cast<unsigned long long>(result.dram_reads));
    std::printf("dram writes     %llu\n",
                static_cast<unsigned long long>(result.dram_writes));
    std::printf("re-encryptions  %llu\n",
                static_cast<unsigned long long>(result.reencryptions));
    if (dump_stats) {
      std::printf("\n--- statistics registry ---\n");
      sim.stats().dump(std::cout);
    }
    if (!metrics_json.empty() &&
        !write_metrics_json(sim.stats(), metrics_json))
      return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
