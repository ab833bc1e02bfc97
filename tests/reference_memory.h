// ReferenceMemory — the straight-line model the production engine is
// diffed against.
//
// SecureMemory runs every operation through batched kernels, a verified
// tree-cache frontier, a chunked snapshot pipeline, a dirty plane, and
// (in the sharded container) per-shard locks. This model does none of
// that. It follows the paper's datapath one block at a time:
//
//   write: on_write -> (overflow: decrypt + re-store every other block of
//          the group under the new counter) -> crypt -> MAC -> lane
//          pack (or SEC-DED encode) -> serialize the counter line ->
//          BonsaiTree::update_leaf
//   read:  verify_leaf -> read_counter -> lane unpack / SEC-DED decode ->
//          MAC verify (flip-and-check on mismatch) -> decrypt
//   save:  one stream write per ciphertext block, lane, and MAC word,
//          then the counter store and the root level
//   restore: one stream read per element, update_leaf per counter line,
//          root-level compare, deserialize_line per line, read_counter
//          per block
//
// Its working keys are derived here, not through the engine, so an image
// match also pins the key derivation. The image format is the engine's
// full-image format (SecureMemory::save), so save images of the two must
// be byte-identical and each must restore the other's.
//
// Test-only: nothing in src/ links it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "counters/counter_scheme.h"
#include "crypto/ctr_keystream.h"
#include "crypto/cw_mac.h"
#include "ecc/mac_ecc.h"
#include "ecc/secded72.h"
#include "engine/layout.h"
#include "engine/secure_memory.h"
#include "reference_flip_and_check.h"
#include "tree/bonsai_tree.h"

namespace secmem {

class ReferenceMemory {
 public:
  explicit ReferenceMemory(const SecureMemoryConfig& config);

  std::uint64_t num_blocks() const noexcept { return ciphertext_.size(); }
  std::uint64_t group_reencryptions() const noexcept {
    return group_reencryptions_;
  }

  void write_block(std::uint64_t block, const DataBlock& plaintext);
  ReadResult read_block(std::uint64_t block) const;

  /// Full image, byte-identical to SecureMemory::save of the same state.
  void save(std::ostream& out) const;
  /// Accept a full image the engine (or this model) saved. False on any
  /// header mismatch, truncation, or root-level mismatch; the model is
  /// left unchanged then.
  [[nodiscard]] bool restore(std::istream& in);

 private:
  void store_block(std::uint64_t block, const DataBlock& plaintext,
                   std::uint64_t counter);
  void sync_counter_line(std::uint64_t line);

  SecureMemoryConfig config_;
  std::unique_ptr<CounterScheme> scheme_;
  SecureRegionLayout layout_;
  CwMacKey tree_key_;
  CtrKeystream keystream_;
  CwMac mac_;
  MacEccCodec mac_ecc_;
  Secded72 secded_;
  ReferenceFlipAndCheck corrector_;
  BonsaiTree tree_;
  std::vector<DataBlock> ciphertext_;
  std::vector<EccLane> lanes_;
  std::vector<std::uint64_t> macs_;  ///< separate-MAC placement only
  std::vector<std::uint8_t> counter_store_;
  std::vector<std::uint64_t> shadow_ctr_;  ///< counter each block is under
  std::uint64_t group_reencryptions_ = 0;
};

/// Master secret of shard `shard` in a ShardedSecureMemory keyed with
/// `master`, derived here rather than through the engine, so a sharded
/// image can be rebuilt from one ReferenceMemory per shard.
std::uint64_t reference_shard_master_key(std::uint64_t master,
                                         unsigned shard);

}  // namespace secmem
