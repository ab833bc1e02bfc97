// Snapshot pipeline throughput: save / restore bandwidth for the plain
// and sharded engines, plus the delta phase: steady-state incremental
// snapshots (save_delta / restore_delta) over a 2% hot set, rolled
// source→replica so every delta applies on its exact base.
//
// save() and restore() move the whole off-chip image (ciphertext, ECC
// lanes, MACs, counter storage, sealed root), so bandwidth is reported
// as image GiB/s. Both engines also split restore into its two phases:
// staging (parse + MAC the counter tree + sealed-root check — all the
// cryptographic cost) and commit (adopt staged state + counter-scheme
// rebuild) — the plain engine through stage_restore/commit_restore, the
// sharded one through restore_timed(). Delta rows report EFFECTIVE
// bandwidth — full-image GiB over the delta's wall time — so
// delta_save_gibps / save_gibps reads directly as the speedup, and
// delta_bytes / image_bytes as the size ratio. Streams are fixed
// preallocated buffers, so the numbers measure the pipeline, not
// allocator churn. The JSON goes to stdout and to snapshot.bench.json
// next to the binary (or --out FILE).
//
//   bench_snapshot [--mib N[,N...]] [--shards N] [--reps N] [--quick]
//                  [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "common/rng.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"

namespace {

using namespace secmem;

/// ostream sink over a caller-owned fixed buffer: save() streams into
/// preallocated storage with zero allocation or copying per rep.
class FixedSink final : public std::streambuf {
 public:
  FixedSink(char* data, std::size_t size) { setp(data, data + size); }
  std::size_t written() const {
    return static_cast<std::size_t>(pptr() - pbase());
  }
};

/// istream source over a borrowed byte buffer (no stringstream copy).
class MemSource final : public std::streambuf {
 public:
  MemSource(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);  // get area is never written
    setg(p, p, p + size);
  }
};

/// ostream sink appending into a caller-owned growable vector — for the
/// image-sizing pass and the variable-sized delta images.
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

struct Sample {
  std::string engine;  ///< "plain" | "sharded"
  std::uint64_t mib;
  double save_gibps;
  double restore_gibps;
  double stage_gibps;   ///< restore staging phase
  double commit_gibps;  ///< restore commit phase
  std::uint64_t image_bytes;  ///< full image size
  std::uint64_t delta_bytes;  ///< 2%-hot-set delta image size
  double delta_save_gibps;    ///< effective: full-image GiB / delta time
  double delta_restore_gibps;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> d =
      std::chrono::steady_clock::now() - start;
  return d.count();
}

/// Touch a spread of blocks so the image is not the all-zeros fresh
/// state: random single writes advance delta counters unevenly.
template <typename Engine>
void dirty_region(Engine& engine, int& bad) {
  Xoshiro256 rng(0x5a7e);
  std::vector<BlockWrite> writes(256);
  for (unsigned round = 0; round < 16; ++round) {
    for (BlockWrite& w : writes) {
      w.block = rng.next_below(engine.num_blocks());
      w.data[0] = static_cast<std::uint8_t>(round);
      w.data[1] = static_cast<std::uint8_t>(w.block);
    }
    bad += engine.write_blocks(writes) != Status::kOk;
  }
}

/// One engine x size measurement. `reps` timed passes each for
/// save and restore (plus the stage/commit split when `split` is set),
/// then the delta phase: a 2% hot set re-dirtied (untimed) before each
/// timed save_delta, every delta applied (timed) to `replica` — which
/// rolls along the chain so each delta lands on its exact base. Returns
/// image-bandwidth samples.
template <typename Engine>
Sample measure(Engine& engine, Engine& replica, const std::string& name,
               std::uint64_t mib, unsigned reps, bool split, int& bad) {
  dirty_region(engine, bad);

  // Size the image with one untimed save, then reuse the buffer.
  std::vector<char> image;
  {
    std::vector<char> grow;
    grow.reserve((mib << 20) * 2);
    VectorSink sink(grow);
    std::ostream out(&sink);
    bad += engine.save(out) != Status::kOk;
    image = std::move(grow);
  }
  const double gib = static_cast<double>(image.size()) / (1 << 30);

  // Untimed warmup restore: the first restore after construction pays
  // the staging allocation (recycled afterwards) —
  // steady-state crash/restore bandwidth is the number of interest.
  {
    MemSource source(image.data(), image.size());
    std::istream in(&source);
    bad += !engine.restore(in);
  }

  Sample s{name, mib, 0, 0, 0, 0, 0, 0, 0, 0};
  s.image_bytes = image.size();
  {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < reps; ++r) {
      FixedSink sink(image.data(), image.size());
      std::ostream out(&sink);
      bad += engine.save(out) != Status::kOk;
      bad += sink.written() != image.size();
    }
    s.save_gibps = reps * gib / seconds_since(start);
  }
  {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < reps; ++r) {
      MemSource source(image.data(), image.size());
      std::istream in(&source);
      bad += !engine.restore(in);
    }
    s.restore_gibps = reps * gib / seconds_since(start);
  }
  if (split) {
    if constexpr (std::is_same_v<Engine, SecureMemory>) {
      double stage_s = 0, commit_s = 0;
      for (unsigned r = 0; r < reps; ++r) {
        MemSource source(image.data(), image.size());
        std::istream in(&source);
        const auto t0 = std::chrono::steady_clock::now();
        auto staged = engine.stage_restore(in);
        stage_s += seconds_since(t0);
        if (!staged) {
          ++bad;
          continue;
        }
        const auto t1 = std::chrono::steady_clock::now();
        engine.commit_restore(std::move(*staged));
        commit_s += seconds_since(t1);
      }
      s.stage_gibps = reps * gib / stage_s;
      s.commit_gibps = reps * gib / commit_s;
    } else if constexpr (std::is_same_v<Engine, ShardedSecureMemory>) {
      double stage_s = 0, commit_s = 0;
      for (unsigned r = 0; r < reps; ++r) {
        MemSource source(image.data(), image.size());
        std::istream in(&source);
        SnapshotTiming t;
        bad += !engine.restore_timed(in, t);
        stage_s += t.stage_s;
        commit_s += t.commit_s;
      }
      s.stage_gibps = reps * gib / stage_s;
      s.commit_gibps = reps * gib / commit_s;
    }
  }

  // Delta phase: chain replica onto the engine's current base (the
  // restores above re-aligned both sides to `image`), then per rep
  // re-dirty a 2% hot set (untimed), seal a delta (timed), and roll it
  // onto the replica (timed).
  {
    MemSource source(image.data(), image.size());
    std::istream in(&source);
    bad += !replica.restore(in);
  }
  const std::uint64_t hot_blocks =
      std::max<std::uint64_t>(1, engine.num_blocks() / 50);
  std::vector<char> delta;
  delta.reserve(image.size() / 8);
  double dsave_s = 0, drestore_s = 0;
  for (unsigned r = 0; r < reps; ++r) {
    std::vector<BlockWrite> writes;
    writes.reserve(256);
    for (std::uint64_t b = 0; b < hot_blocks;) {
      writes.clear();
      for (; b < hot_blocks && writes.size() < 256; ++b) {
        BlockWrite w;
        w.block = b;
        w.data[0] = static_cast<std::uint8_t>(r + 1);
        w.data[1] = static_cast<std::uint8_t>(b);
        writes.push_back(w);
      }
      bad += engine.write_blocks(writes) != Status::kOk;
    }
    delta.clear();
    VectorSink sink(delta);
    std::ostream out(&sink);
    const auto t0 = std::chrono::steady_clock::now();
    bad += engine.save_delta(out) != Status::kOk;
    dsave_s += seconds_since(t0);
    MemSource source(delta.data(), delta.size());
    std::istream in(&source);
    const auto t1 = std::chrono::steady_clock::now();
    bad += !replica.restore_delta(in);
    drestore_s += seconds_since(t1);
  }
  s.delta_bytes = delta.size();
  s.delta_save_gibps = reps * gib / dsave_s;
  s.delta_restore_gibps = reps * gib / drestore_s;
  return s;
}

void emit_json(std::FILE* out, const std::vector<Sample>& samples,
               unsigned shards, unsigned reps) {
  std::fprintf(out,
               "{\n  \"bench\": \"snapshot\",\n  \"shards\": %u,\n"
               "  \"reps\": %u,\n  \"results\": [\n",
               shards, reps);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", "
                 "\"region_mib\": %llu, \"save_gibps\": %.3f, "
                 "\"restore_gibps\": %.3f, \"stage_gibps\": %.3f, "
                 "\"commit_gibps\": %.3f, \"image_bytes\": %llu, "
                 "\"delta_bytes\": %llu, \"delta_save_gibps\": %.3f, "
                 "\"delta_restore_gibps\": %.3f}%s\n",
                 s.engine.c_str(),
                 static_cast<unsigned long long>(s.mib), s.save_gibps,
                 s.restore_gibps, s.stage_gibps, s.commit_gibps,
                 static_cast<unsigned long long>(s.image_bytes),
                 static_cast<unsigned long long>(s.delta_bytes),
                 s.delta_save_gibps, s.delta_restore_gibps,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> sizes{8, 32};
  unsigned shards = 8;
  unsigned reps = 5;
  std::string out_path = secmem_bench::binary_dir_path("snapshot.bench.json");
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
      sizes.clear();
      const std::string list = value();
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        sizes.push_back(
            std::strtoull(list.substr(pos, comma - pos).c_str(), nullptr, 10));
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
    } else if (arg == "--shards") {
      shards = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--reps") {
      reps = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--quick") {
      sizes = {4};
      reps = 1;
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--mib N[,N...]] [--shards N] [--reps N] "
                   "[--quick] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  int bad = 0;
  std::vector<Sample> samples;
  for (const std::uint64_t mib : sizes) {
    SecureMemoryConfig config;
    config.size_bytes = mib << 20;
    try {
      SecureMemory plain(config);
      SecureMemory plain_replica(config);
      samples.push_back(measure(plain, plain_replica, "plain", mib, reps,
                                /*split=*/true, bad));
      ShardedSecureMemory sharded(config, shards);
      ShardedSecureMemory sharded_replica(config, shards);
      samples.push_back(measure(sharded, sharded_replica, "sharded", mib,
                                reps, /*split=*/true, bad));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    for (auto it = samples.end() - 2; it != samples.end(); ++it) {
      std::string extra;
      if (it->stage_gibps > 0)
        extra += " (stage " + std::to_string(it->stage_gibps) + " / commit " +
                 std::to_string(it->commit_gibps) + ")";
      if (it->delta_bytes > 0)
        extra += " | delta save " + std::to_string(it->delta_save_gibps) +
                 " / restore " + std::to_string(it->delta_restore_gibps) +
                 " eff GiB/s, " + std::to_string(it->delta_bytes) + " B";
      std::fprintf(stderr,
                   "%7s %3llu MiB: save %.3f GiB/s | restore %.3f GiB/s%s\n",
                   it->engine.c_str(), static_cast<unsigned long long>(mib),
                   it->save_gibps, it->restore_gibps, extra.c_str());
    }
  }
  if (bad != 0) {
    std::fprintf(stderr, "FAIL: %d snapshot operations misbehaved\n", bad);
    return 1;
  }

  secmem_bench::MetricsDump metrics("snapshot");
  for (const Sample& s : samples) {
    const std::string base = metric_path(
        {"snapshot", s.engine, std::to_string(s.mib) + "mib"});
    metrics.registry().scalar(metric_path({base, "save_gibps"}))
        .sample(s.save_gibps);
    metrics.registry().scalar(metric_path({base, "restore_gibps"}))
        .sample(s.restore_gibps);
    if (s.stage_gibps > 0) {
      metrics.registry().scalar(metric_path({base, "stage_gibps"}))
          .sample(s.stage_gibps);
      metrics.registry().scalar(metric_path({base, "commit_gibps"}))
          .sample(s.commit_gibps);
    }
    if (s.delta_bytes > 0) {
      metrics.registry().scalar(metric_path({base, "delta_save_gibps"}))
          .sample(s.delta_save_gibps);
      metrics.registry().scalar(metric_path({base, "delta_restore_gibps"}))
          .sample(s.delta_restore_gibps);
      metrics.registry().scalar(metric_path({base, "delta_bytes"}))
          .sample(static_cast<double>(s.delta_bytes));
    }
  }
  if (!metrics.write()) return 1;

  emit_json(stdout, samples, shards, reps);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f) {
      emit_json(f, samples, shards, reps);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
  }
  return 0;
}
