// Shard locking vocabulary — the ordered multi-lock machinery of the
// sharded engine over SecureMemory.
//
// Locking discipline (machine-checked where clang's Thread Safety
// Analysis can reach, TSan-covered everywhere):
//
//  - Every shard's state is SECMEM_GUARDED_BY its own secmem::SeqLock
//    (engine/sharded_memory.h keeps the lock *inside* the Shard struct so
//    the analysis can unify "this shard's lock" with "this shard's
//    engine"); single-shard operations take a SeqWriteLock (or a
//    SeqReadLock on the const read fast path) and are fully statically
//    checked.
//
//  - Operations that span shards (cross-shard byte reads and writes,
//    rotation, the restores) take their runtime-selected set of locks
//    exclusively through lock_in_order() below: strictly ascending table
//    order, the fixed global order that makes concurrent multi-shard
//    operations safe against each other. A runtime-indexed lock set is
//    beyond static analysis — callers carry
//    SECMEM_NO_THREAD_SAFETY_ANALYSIS and a comment, and stay in the TSan
//    preset's test filter.
#pragma once

#include <cassert>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/thread_annotations.h"

namespace secmem {

/// Acquire several capability mutexes deadlock-free. `mutexes` must be in
/// a fixed global order (ascending shard index), duplicate-free — callers
/// pass the sorted output of a shards_in_range-style routing computation.
/// The returned guards release in reverse order on destruction.
///
/// Works for any exclusive capability lock (secmem::Mutex, or
/// secmem::SeqLock — whose lock() also drains the reader indicator, so
/// an ordered multi-shard holder excludes shared readers exactly like a
/// single-shard SeqWriteLock does).
///
/// Invisible to thread-safety analysis (the lock set is runtime data);
/// callers must be SECMEM_NO_THREAD_SAFETY_ANALYSIS.
template <typename LockT>
inline std::vector<std::unique_lock<LockT>> lock_in_order(
    const std::vector<LockT*>& mutexes) {
  std::vector<std::unique_lock<LockT>> held;
  held.reserve(mutexes.size());
  for (std::size_t i = 0; i < mutexes.size(); ++i) {
    assert(mutexes[i] != nullptr);
    assert(i == 0 || mutexes[i] != mutexes[i - 1]);
    held.emplace_back(*mutexes[i]);
  }
  return held;
}

}  // namespace secmem
