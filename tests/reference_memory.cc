#include "reference_memory.h"

#include <array>
#include <istream>
#include <ostream>

#include "common/ct.h"
#include "counters/generic_delta.h"

namespace secmem {

namespace {

constexpr char kImageMagic[8] = {'S', 'E', 'C', 'M', 'E', 'M', '0', '1'};

/// The splitmix64 step, written out so the derivation below depends on
/// nothing the engine shares.
std::uint64_t next_word(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void next_aes_key(std::uint64_t& state, Aes128::Key& key) {
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t word = next_word(state);
    for (int i = 0; i < 8; ++i)
      key[8 * half + i] = static_cast<std::uint8_t>(word >> (8 * i));
  }
}

/// Working keys from the master secret, in chain order: data key, data
/// MAC key (hash then pad), tree MAC key (hash then pad). The snapshot
/// seal key comes next in the chain; full images never use it.
struct Keys {
  Aes128::Key data_key{};
  CwMacKey mac_key{};
  CwMacKey tree_key{};
};

Keys derive(std::uint64_t master) {
  Keys keys;
  std::uint64_t state = master;
  next_aes_key(state, keys.data_key);
  keys.mac_key.hash_key = next_word(state);
  next_aes_key(state, keys.mac_key.pad_key);
  keys.tree_key.hash_key = next_word(state);
  next_aes_key(state, keys.tree_key.pad_key);
  return keys;
}

std::unique_ptr<CounterScheme> scheme_for(const SecureMemoryConfig& config) {
  if (config.generic_delta_bits != 0)
    return std::make_unique<GenericDeltaCounters>(config.size_bytes / 64,
                                                  config.generic_delta_bits);
  return make_counter_scheme(config.scheme, config.size_bytes / 64);
}

LayoutParams layout_for(const SecureMemoryConfig& config,
                        const CounterScheme& scheme) {
  LayoutParams params;
  params.data_bytes = config.size_bytes;
  params.blocks_per_counter_line = scheme.blocks_per_storage_line();
  params.onchip_bytes = config.onchip_bytes;
  params.separate_macs = config.mac_placement == MacPlacement::kSeparate;
  params.counter_bits_per_block = scheme.bits_per_block();
  return params;
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (8 * i));
  out.write(le, 8);
}

std::uint64_t get_u64(std::istream& in) {
  unsigned char le[8] = {};
  in.read(reinterpret_cast<char*>(le), 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | le[i];
  return v;
}

}  // namespace

std::uint64_t reference_shard_master_key(std::uint64_t master,
                                         unsigned shard) {
  std::uint64_t state = master ^ (0x5ec'da7a'5a2dULL + shard);
  return next_word(state);
}

ReferenceMemory::ReferenceMemory(const SecureMemoryConfig& config)
    : config_(config),
      scheme_(scheme_for(config)),
      layout_(layout_for(config, *scheme_)),
      tree_key_(derive(config.master_key).tree_key),
      keystream_(derive(config.master_key).data_key),
      mac_(derive(config.master_key).mac_key),
      tree_(layout_.tree(), tree_key_),
      ciphertext_(layout_.num_blocks()),
      lanes_(layout_.num_blocks()),
      counter_store_(layout_.num_counter_lines() * 64, 0),
      shadow_ctr_(layout_.num_blocks(), 0) {
  if (config.mac_placement == MacPlacement::kSeparate)
    macs_.resize(layout_.num_blocks(), 0);
  // Encrypted zeros under counter 0, then every counter line and its
  // tree path.
  for (std::uint64_t b = 0; b < num_blocks(); ++b)
    store_block(b, DataBlock{}, 0);
  for (std::uint64_t line = 0; line < layout_.num_counter_lines(); ++line)
    sync_counter_line(line);
}

void ReferenceMemory::store_block(std::uint64_t block,
                                  const DataBlock& plaintext,
                                  std::uint64_t counter) {
  DataBlock ct = plaintext;
  keystream_.crypt(block * 64, counter, ct);
  const std::uint64_t tag = mac_.compute(block * 64, counter, ct);
  ciphertext_[block] = ct;
  if (config_.mac_placement == MacPlacement::kEccLane) {
    lanes_[block] = mac_ecc_.pack_lane(tag, ct);
  } else {
    macs_[block] = tag;
    lanes_[block] = secded_.encode(ct);
  }
  shadow_ctr_[block] = counter;
}

void ReferenceMemory::sync_counter_line(std::uint64_t line) {
  const std::span<std::uint8_t, 64> bytes(counter_store_.data() + line * 64,
                                          64);
  scheme_->serialize_line(line, bytes);
  tree_.update_leaf(line, BonsaiTree::LineView(bytes));
}

void ReferenceMemory::write_block(std::uint64_t block,
                                  const DataBlock& plaintext) {
  const WriteOutcome outcome = scheme_->on_write(block);
  if (outcome.event == CounterEvent::kReencrypt) {
    // Paper Fig 5a: every other block of the group is read, decrypted
    // under its old counter, and re-encrypted under the new one.
    ++group_reencryptions_;
    const std::uint64_t first = outcome.group * scheme_->blocks_per_group();
    for (std::uint64_t b = first;
         b < first + scheme_->blocks_per_group() && b < num_blocks(); ++b) {
      if (b == block) continue;
      DataBlock plain = ciphertext_[b];
      keystream_.crypt(b * 64, shadow_ctr_[b], plain);
      store_block(b, plain, outcome.counter);
    }
  }
  store_block(block, plaintext, outcome.counter);
  sync_counter_line(scheme_->storage_line_of(block));
}

ReadResult ReferenceMemory::read_block(std::uint64_t block) const {
  ReadResult result{ReadStatus::kOk, {}, 0};
  const std::uint64_t line = scheme_->storage_line_of(block);
  if (!tree_.verify_leaf(line, BonsaiTree::LineView(
                                   counter_store_.data() + line * 64, 64))) {
    result.status = ReadStatus::kCounterTampered;
    return result;
  }
  const std::uint64_t counter = scheme_->read_counter(block);
  const std::uint64_t addr = block * 64;
  DataBlock ct = ciphertext_[block];
  if (config_.mac_placement == MacPlacement::kEccLane) {
    const auto unpacked = mac_ecc_.unpack_lane(lanes_[block]);
    if (unpacked.status == MacEccCodec::MacStatus::kUncorrectable) {
      result.status = ReadStatus::kIntegrityViolation;
      return result;
    }
    if (!mac_.verify(addr, counter, ct, unpacked.mac)) {
      const CorrectionResult fix =
          corrector_.correct(ct, [&](const DataBlock& candidate) {
            return mac_.verify(addr, counter, candidate, unpacked.mac);
          });
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
    const auto decoded = secded_.decode(ct, lanes_[block]);
    if (decoded.any_uncorrectable ||
        !mac_.verify(addr, counter, decoded.data, macs_[block])) {
      result.status = ReadStatus::kIntegrityViolation;
      return result;
    }
    ct = decoded.data;
    if (decoded.any_corrected) result.status = ReadStatus::kCorrectedWord;
  }
  keystream_.crypt(addr, counter, ct);
  result.data = ct;
  return result;
}

void ReferenceMemory::save(std::ostream& out) const {
  out.write(kImageMagic, sizeof(kImageMagic));
  put_u64(out, config_.size_bytes);
  put_u64(out, static_cast<std::uint64_t>(config_.scheme));
  put_u64(out, static_cast<std::uint64_t>(config_.mac_placement));
  put_u64(out, config_.generic_delta_bits);
  for (const DataBlock& ct : ciphertext_)
    out.write(reinterpret_cast<const char*>(ct.data()), 64);
  for (const EccLane& lane : lanes_)
    out.write(reinterpret_cast<const char*>(lane.data()), 8);
  for (const std::uint64_t mac : macs_) put_u64(out, mac);
  out.write(reinterpret_cast<const char*>(counter_store_.data()),
            static_cast<std::streamsize>(counter_store_.size()));
  const unsigned top = layout_.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout_.tree().nodes_at[top]; ++node) {
    const auto bytes = tree_.read_node(top, node);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

bool ReferenceMemory::restore(std::istream& in) {
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in || !ct_equal(magic, kImageMagic, sizeof(magic))) return false;
  if (get_u64(in) != config_.size_bytes ||
      get_u64(in) != static_cast<std::uint64_t>(config_.scheme) ||
      get_u64(in) != static_cast<std::uint64_t>(config_.mac_placement) ||
      get_u64(in) != config_.generic_delta_bits)
    return false;

  std::vector<DataBlock> ciphertext(num_blocks());
  std::vector<EccLane> lanes(num_blocks());
  std::vector<std::uint64_t> macs(macs_.size());
  std::vector<std::uint8_t> counter_store(counter_store_.size());
  for (DataBlock& ct : ciphertext)
    in.read(reinterpret_cast<char*>(ct.data()), 64);
  for (EccLane& lane : lanes) in.read(reinterpret_cast<char*>(lane.data()), 8);
  for (std::uint64_t& mac : macs) mac = get_u64(in);
  in.read(reinterpret_cast<char*>(counter_store.data()),
          static_cast<std::streamsize>(counter_store.size()));
  if (!in) return false;

  // Eager rebuild: one root walk per counter line, then the computed
  // root level must equal the sealed one in the image.
  BonsaiTree tree(layout_.tree(), tree_key_);
  for (std::uint64_t line = 0; line < layout_.num_counter_lines(); ++line)
    tree.update_leaf(line, BonsaiTree::LineView(
                               counter_store.data() + line * 64, 64));
  const unsigned top = layout_.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout_.tree().nodes_at[top]; ++node) {
    std::array<std::uint8_t, 64> sealed{};
    in.read(reinterpret_cast<char*>(sealed.data()), 64);
    const auto computed = tree.read_node(top, node);
    if (!in || !ct_equal(computed.data(), sealed.data(), 64)) return false;
  }

  ciphertext_ = std::move(ciphertext);
  lanes_ = std::move(lanes);
  macs_ = std::move(macs);
  counter_store_ = std::move(counter_store);
  tree_ = std::move(tree);
  for (std::uint64_t line = 0; line < layout_.num_counter_lines(); ++line)
    scheme_->deserialize_line(line, std::span<const std::uint8_t, 64>(
                                        counter_store_.data() + line * 64,
                                        64));
  for (std::uint64_t b = 0; b < num_blocks(); ++b)
    shadow_ctr_[b] = scheme_->read_counter(b);
  return true;
}

}  // namespace secmem
