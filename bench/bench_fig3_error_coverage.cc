// Figure 3 reproduction: error detection/correction coverage of standard
// per-word SEC-DED ECC versus the paper's MAC-based ECC, by fault pattern.
//
// For each fault pattern we inject N random faults into a (64B data,
// 8B ECC/MAC lane) line and run each scheme's full decode machinery:
//   SEC-DED : per-word Hamming decode of the data + the lane's own codes
//   MAC-ECC : 7-bit Hamming repair of the MAC field, then MAC check, then
//             brute-force flip-and-check (<= 2 bits) on the data
// Reported per scheme: corrected / detected-only / undetected(+miscorrect).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_metrics.h"
#include "common/rng.h"
#include "crypto/cw_mac.h"
#include "ecc/fault_model.h"
#include "ecc/flip_and_check.h"
#include "ecc/mac_ecc.h"
#include "ecc/secded72.h"

namespace {

using namespace secmem;

struct Tally {
  int corrected = 0;
  int detected = 0;    // flagged uncorrectable (no silent corruption)
  int undetected = 0;  // accepted wrong data — the failure mode
};

CwMacKey bench_key() {
  CwMacKey key{};
  key.hash_key = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 16; ++i) key.pad_key[i] = static_cast<std::uint8_t>(i * 17);
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 300;

  const CwMac mac(bench_key());
  const MacEccCodec mac_codec;
  const Secded72 secded;
  const FlipAndCheck corrector;
  Xoshiro256 rng(2018);

  const FaultPattern patterns[] = {
      FaultPattern::kSingleBitData,     FaultPattern::kDoubleBitSameWord,
      FaultPattern::kDoubleBitCrossWord, FaultPattern::kTripleBitData,
      FaultPattern::kManyBitSingleWord, FaultPattern::kSingleBitLane,
      FaultPattern::kDoubleBitLane,     FaultPattern::kMixedDataAndLane,
  };

  std::printf(
      "=== Figure 3: fault coverage, standard SEC-DED vs MAC-based ECC "
      "(%d faults/pattern) ===\n\n", trials);
  std::printf("%-26s | %-28s | %-28s\n", "", "standard SEC-DED (72,64)",
              "MAC-ECC (56b MAC + 7b code)");
  std::printf("%-26s | %9s %9s %8s | %9s %9s %8s\n", "fault pattern",
              "corrected", "detected", "missed", "corrected", "detected",
              "missed");

  secmem_bench::MetricsDump metrics("fig3_error_coverage");
  for (const FaultPattern pattern : patterns) {
    Tally secded_tally, mac_tally;
    FaultInjector injector(static_cast<std::uint64_t>(pattern) * 977 + 1);

    for (int t = 0; t < trials; ++t) {
      DataBlock data;
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      const std::uint64_t addr = (rng.next_below(1 << 20)) * 64;
      const std::uint64_t counter = rng.next_below(1 << 20);
      const std::uint64_t tag = mac.compute(addr, counter, data);

      const Fault fault = injector.sample(pattern);

      // ---- standard SEC-DED path ----
      {
        DataBlock stored = data;
        EccLane lane = secded.encode(stored);
        FaultInjector::apply(fault, stored, lane);
        const auto decoded = secded.decode(stored, lane);
        if (decoded.any_uncorrectable) {
          ++secded_tally.detected;
        } else if (decoded.data == data) {
          ++secded_tally.corrected;
        } else {
          ++secded_tally.undetected;  // silently accepted wrong data
        }
      }

      // ---- MAC-based ECC path ----
      {
        DataBlock stored = data;
        EccLane lane = mac_codec.pack_lane(tag, stored);
        FaultInjector::apply(fault, stored, lane);
        const auto unpacked = mac_codec.unpack_lane(lane);
        if (unpacked.status == MacEccCodec::MacStatus::kUncorrectable) {
          ++mac_tally.detected;
          continue;
        }
        const std::uint64_t pad = mac.pad_for(addr, counter);
        const auto result =
            corrector.correct_incremental(stored, mac, pad, unpacked.mac);
        if (result.status == CorrectionStatus::kUncorrectable) {
          ++mac_tally.detected;
        } else if (result.data == data) {
          ++mac_tally.corrected;
        } else {
          ++mac_tally.undetected;
        }
      }
    }

    const std::string base =
        std::string("fig3.") + fault_pattern_name(pattern);
    secmem::StatRegistry& reg = metrics.registry();
    reg.counter(base + ".secded.corrected").inc(secded_tally.corrected);
    reg.counter(base + ".secded.detected").inc(secded_tally.detected);
    reg.counter(base + ".secded.undetected").inc(secded_tally.undetected);
    reg.counter(base + ".mac_ecc.corrected").inc(mac_tally.corrected);
    reg.counter(base + ".mac_ecc.detected").inc(mac_tally.detected);
    reg.counter(base + ".mac_ecc.undetected").inc(mac_tally.undetected);

    std::printf("%-26s | %9d %9d %8d | %9d %9d %8d\n",
                fault_pattern_name(pattern), secded_tally.corrected,
                secded_tally.detected, secded_tally.undetected,
                mac_tally.corrected, mac_tally.detected,
                mac_tally.undetected);
  }

  std::printf(
      "\nexpected shape (paper Fig 3): SEC-DED wins on multi-word spread "
      "singles;\nMAC-ECC wins on double-bit-in-one-word and detects "
      "arbitrary data faults;\nneither silently accepts corrupted data "
      "except SEC-DED on >2-bit word faults.\n");
  return 0;
}
