// Limited-MLP out-of-order core approximation.
//
// The MARSSx86 substitute (see DESIGN.md): what Figure 8 needs from a CPU
// model is faithful translation of memory-latency differences into IPC.
// An OoO window hides miss latency two ways: (i) non-memory work retires
// underneath outstanding misses, and (ii) up to `mlp` independent misses
// overlap. Both are modeled; dependent loads (pointer chases) stall the
// core until the data returns, as they would in hardware.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace secmem {

class CoreModel {
 public:
  /// `base_ipc`: peak non-memory retire rate. `mlp`: max in-flight misses.
  CoreModel(double base_ipc, unsigned mlp)
      : base_ipc_(base_ipc), mlp_(mlp), outstanding_(mlp) {}

  /// Retire `n` non-memory instructions.
  void advance_compute(std::uint64_t n) {
    clock_ += static_cast<double>(n) / base_ipc_;
    instructions_ += n;
  }

  /// Account one memory instruction whose data returns at `completion`
  /// (absolute cycles). `dependent` forces an immediate stall; otherwise
  /// the miss occupies an MLP slot and only stalls when slots run out.
  void memory_access(double completion, bool dependent) {
    ++instructions_;
    clock_ += 1.0 / base_ipc_;  // the instruction itself
    if (dependent) {
      if (completion > clock_) clock_ = completion;
      return;
    }
    if (in_flight_ < mlp_) {
      std::size_t slot = oldest_ + in_flight_;
      if (slot >= mlp_) slot -= mlp_;
      outstanding_[slot] = completion;
      ++in_flight_;
      return;
    }
    // Window full: the core waits for the oldest miss, whose slot the new
    // one takes (with no slots at all, for this miss itself).
    double oldest = completion;
    if (mlp_ > 0) {
      std::swap(oldest, outstanding_[oldest_]);
      if (++oldest_ == mlp_) oldest_ = 0;
    }
    if (oldest > clock_) clock_ = oldest;
  }

  /// A short-latency access (cache hit) that the window fully hides
  /// except for a small exposed cost.
  void fast_access(double exposed_cycles) {
    ++instructions_;
    clock_ += 1.0 / base_ipc_ + exposed_cycles;
  }

  /// Wait for all outstanding misses (end of run).
  void drain() {
    for (std::size_t i = 0; i < in_flight_; ++i) {
      std::size_t slot = oldest_ + i;
      if (slot >= mlp_) slot -= mlp_;
      if (outstanding_[slot] > clock_) clock_ = outstanding_[slot];
    }
    in_flight_ = 0;
  }

  double clock() const noexcept { return clock_; }
  std::uint64_t instructions() const noexcept { return instructions_; }

 private:
  double base_ipc_;
  unsigned mlp_;
  double clock_ = 0;
  std::uint64_t instructions_ = 0;
  // In-flight miss completions: a ring of `mlp` slots, oldest first from
  // index oldest_.
  std::vector<double> outstanding_;
  std::size_t oldest_ = 0;
  std::size_t in_flight_ = 0;
};

}  // namespace secmem
