// Microbenchmarks of the hardware-modeled primitives (google-benchmark):
// AES-128, CTR keystream, Carter-Wegman MAC, Hamming/SEC-DED codecs,
// MAC-ECC lane pack/unpack, and flip-and-check correction including the
// paper's §3.4 worst cases (512 checks single-bit, 130,816 double-bit).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench_metrics.h"
#include "common/bitops.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/crypto_backend.h"
#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"
#include "crypto/gf64.h"
#include "ecc/flip_and_check.h"
#include "ecc/mac_ecc.h"
#include "ecc/secded72.h"

namespace {

using namespace secmem;

Aes128::Key aes_key() {
  Aes128::Key key{};
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i * 7);
  return key;
}

CwMacKey mac_key() {
  CwMacKey key{};
  key.hash_key = 0x9E3779B97F4A7C15ULL;
  key.pad_key = aes_key();
  return key;
}

DataBlock sample_block() {
  DataBlock block{};
  Xoshiro256 rng(7);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  return block;
}

void BM_AesEncryptBlock(benchmark::State& state) {
  const Aes128 aes(aes_key());
  Aes128::Block block{};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

void BM_CtrKeystream64B(benchmark::State& state) {
  const CtrKeystream ks(aes_key());
  DataBlock out{};
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    ks.generate(0x1000, ++ctr, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlockBytes));
  state.SetLabel(ks.backend_name());
}
BENCHMARK(BM_CtrKeystream64B);

// Per-backend AES-CTR keystream: the tentpole before/after pair. The
// accelerated entry reports an error (rather than silently benchmarking
// the fallback) on hosts without AES-NI.
void BM_CtrKeystream64BBackend(benchmark::State& state,
                               const Aes128Ops* ops) {
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const CtrKeystream ks(aes_key(), *ops);
  DataBlock out{};
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    ks.generate(0x1000, ++ctr, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlockBytes));
  state.SetLabel(ops->name);
}
BENCHMARK_CAPTURE(BM_CtrKeystream64BBackend, portable,
                  &aes128_ops_portable());
BENCHMARK_CAPTURE(BM_CtrKeystream64BBackend, accel,
                  aes128_ops_accelerated());

void BM_CtrKeystreamBatch64(benchmark::State& state) {
  // What read_blocks/write_blocks feed the kernel: 64 keystreams
  // back-to-back through generate_batch.
  const CtrKeystream ks(aes_key());
  constexpr std::size_t kBatch = 64;
  std::vector<std::uint64_t> addrs(kBatch), ctrs(kBatch);
  std::vector<DataBlock> out(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) addrs[i] = i * kBlockBytes;
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    for (auto& c : ctrs) c = epoch;
    ks.generate_batch(addrs, ctrs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch * kBlockBytes));
  state.SetLabel(ks.backend_name());
}
BENCHMARK(BM_CtrKeystreamBatch64);

// One block op's cipher work on the engine's single-block paths: the
// 64-byte CTR keystream plus the MAC pad for the same (addr, counter).
// `serial` is the two calls the engine used to make back to back
// (CtrKeystream::generate, then CwMac::pad_for); `fused` is the one
// CwMac::keystream_and_pad call (Aes128Ops::encrypt4_1: five interleaved
// AES chains under two key schedules).
void BM_KeystreamAndPad(benchmark::State& state, const Aes128Ops* ops,
                        bool fused) {
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const CtrKeystream ks(aes_key(), *ops);
  const CwMac mac(mac_key(), *ops, gf64_ops_portable());
  DataBlock keystream{};
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    ++ctr;
    std::uint64_t pad;
    if (fused) {
      pad = mac.keystream_and_pad(ks, 0x1000, ctr, keystream);
    } else {
      ks.generate(0x1000, ctr, keystream);
      pad = mac.pad_for(0x1000, ctr);
    }
    benchmark::DoNotOptimize(keystream);
    benchmark::DoNotOptimize(pad);
  }
  state.SetLabel(ops->name);
}
BENCHMARK_CAPTURE(BM_KeystreamAndPad, serial_portable, &aes128_ops_portable(),
                  false);
BENCHMARK_CAPTURE(BM_KeystreamAndPad, fused_portable, &aes128_ops_portable(),
                  true);
BENCHMARK_CAPTURE(BM_KeystreamAndPad, serial_accel, aes128_ops_accelerated(),
                  false);
BENCHMARK_CAPTURE(BM_KeystreamAndPad, fused_accel, aes128_ops_accelerated(),
                  true);

void BM_Gf64Mul(benchmark::State& state) {
  std::uint64_t a = 0x0123456789ABCDEFULL, b = 0xFEDCBA9876543210ULL;
  for (auto _ : state) {
    a = gf64_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Gf64Mul);

void BM_Gf64MulBackend(benchmark::State& state, const Gf64Ops* ops) {
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  std::uint64_t a = 0x0123456789ABCDEFULL, b = 0xFEDCBA9876543210ULL;
  for (auto _ : state) {
    a = ops->mul(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(ops->name);
}
BENCHMARK_CAPTURE(BM_Gf64MulBackend, portable, &gf64_ops_portable());
BENCHMARK_CAPTURE(BM_Gf64MulBackend, accel, gf64_ops_accelerated());

void BM_CwMacBlock(benchmark::State& state) {
  const CwMac mac(mac_key());
  const DataBlock block = sample_block();
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute_block(0x40, ++ctr, block));
  }
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK(BM_CwMacBlock);

void BM_CwMacBlockBackend(benchmark::State& state, const Aes128Ops* aes_ops,
                          const Gf64Ops* gf_ops) {
  if (aes_ops == nullptr || gf_ops == nullptr) {
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  const CwMac mac(mac_key(), *aes_ops, *gf_ops);
  const DataBlock block = sample_block();
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute_block(0x40, ++ctr, block));
  }
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK_CAPTURE(BM_CwMacBlockBackend, portable, &aes128_ops_portable(),
                  &gf64_ops_portable());
BENCHMARK_CAPTURE(BM_CwMacBlockBackend, accel, aes128_ops_accelerated(),
                  gf64_ops_accelerated());

void BM_CwMacComputeBatch64(benchmark::State& state) {
  const CwMac mac(mac_key());
  constexpr std::size_t kBatch = 64;
  std::vector<std::uint64_t> addrs(kBatch), ctrs(kBatch), tags(kBatch);
  std::vector<DataBlock> blocks(kBatch, sample_block());
  for (std::size_t i = 0; i < kBatch; ++i) addrs[i] = i * kBlockBytes;
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    for (auto& c : ctrs) c = epoch;
    mac.compute_batch(addrs, ctrs, blocks, tags);
    benchmark::DoNotOptimize(tags.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch * kBlockBytes));
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK(BM_CwMacComputeBatch64);

void BM_CwMacPrfDeltaCommand(benchmark::State& state) {
  // A delta command stream's MAC: compute_prf over 192 KiB, the shape the
  // snapshot layer seals once per save_delta and checks once per stage.
  const CwMac mac(mac_key());
  std::vector<std::uint8_t> stream(192 * 1024);
  Xoshiro256 rng(11);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute_prf(3, stream));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK(BM_CwMacPrfDeltaCommand);

void BM_CwMacVerifyWithHoistedPad(benchmark::State& state) {
  // The flip-and-check inner loop: pad hoisted, polyhash only.
  const CwMac mac(mac_key());
  const DataBlock block = sample_block();
  const std::uint64_t pad = mac.pad_for(0x40, 1);
  const std::uint64_t tag = mac.compute_block(0x40, 1, block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.verify_with_pad(pad, block, tag));
  }
}
BENCHMARK(BM_CwMacVerifyWithHoistedPad);

void BM_Secded72EncodeBlock(benchmark::State& state) {
  const Secded72 codec;
  const DataBlock block = sample_block();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(block));
  }
}
BENCHMARK(BM_Secded72EncodeBlock);

void BM_Secded72DecodeClean(benchmark::State& state) {
  const Secded72 codec;
  const DataBlock block = sample_block();
  const EccLane lane = codec.encode(block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(block, lane));
  }
}
BENCHMARK(BM_Secded72DecodeClean);

void BM_MacEccPackUnpack(benchmark::State& state) {
  const MacEccCodec codec;
  const DataBlock block = sample_block();
  for (auto _ : state) {
    const std::uint64_t lane = codec.pack(0x123456789ABCDEULL, block);
    benchmark::DoNotOptimize(codec.unpack(lane));
  }
}
BENCHMARK(BM_MacEccPackUnpack);

// Paper §3.4 cost analysis: worst-case flip-and-check work, through the
// production corrector. Each candidate check is one XOR + compare via
// polyhash linearity; the search order is the paper's, so `mac_evals`
// is its worst-case trial count (1 + 512 for the last single bit,
// 1 + 512 + 130,816 for the last pair).
void BM_FlipAndCheckSingleBitWorstCaseIncremental(benchmark::State& state) {
  const CwMac mac(mac_key());
  const DataBlock block = sample_block();
  const std::uint64_t tag = mac.compute_block(0x40, 1, block);
  const std::uint64_t pad = mac.pad_for(0x40, 1);
  DataBlock corrupted = block;
  flip_bit(corrupted, 511);
  const FlipAndCheck corrector(FlipAndCheck::Config{1, 1});
  CorrectionResult result{};
  for (auto _ : state) {
    result = corrector.correct_incremental(corrupted, mac, pad, tag);
    benchmark::DoNotOptimize(result);
  }
  state.counters["mac_evals"] = static_cast<double>(result.mac_evaluations);
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK(BM_FlipAndCheckSingleBitWorstCaseIncremental);

void BM_FlipAndCheckDoubleBitWorstCaseIncremental(benchmark::State& state) {
  const CwMac mac(mac_key());
  const DataBlock block = sample_block();
  const std::uint64_t tag = mac.compute_block(0x40, 1, block);
  const std::uint64_t pad = mac.pad_for(0x40, 1);
  DataBlock corrupted = block;
  flip_bit(corrupted, 510);
  flip_bit(corrupted, 511);
  const FlipAndCheck corrector;
  CorrectionResult result{};
  for (auto _ : state) {
    result = corrector.correct_incremental(corrupted, mac, pad, tag);
    benchmark::DoNotOptimize(result);
  }
  state.counters["mac_evals"] = static_cast<double>(result.mac_evaluations);
  state.SetLabel(mac.gf_backend_name());
}
BENCHMARK(BM_FlipAndCheckDoubleBitWorstCaseIncremental);

}  // namespace

int main(int argc, char** argv) {
  return secmem_bench::run_benchmarks_with_metrics(argc, argv,
                                                   "micro_crypto");
}
