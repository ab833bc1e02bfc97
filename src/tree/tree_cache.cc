#include "tree/tree_cache.h"

#include <cstring>
#include <utility>

#include "common/bitops.h"
#include "common/ct.h"

namespace secmem {

VerifiedTreeCache::VerifiedTreeCache(BonsaiTree& tree,
                                     const TreeCacheConfig& config,
                                     MetricsCell* metrics)
    : tree_(tree), metrics_(metrics) {
  const std::size_t total =
      static_cast<std::size_t>(config.capacity_kb) * 1024 /
      BonsaiTree::kLineBytes;
  if (total == 0) return;  // disabled: eager delegation
  ways_ = config.ways ? config.ways : 1;
  if (ways_ > total) ways_ = static_cast<unsigned>(total);
  // Power-of-two sets so set_of() is a mask; round down, never below 1.
  sets_ = 1;
  while (sets_ * 2 * ways_ <= total) sets_ *= 2;
  entry_count_ = sets_ * ways_;
  entries_ = std::make_unique<Entry[]>(entry_count_);
  path_.reserve(tree_.geometry().total_levels());
}

std::size_t VerifiedTreeCache::set_of(std::uint64_t key) const noexcept {
  // Fibonacci multiplicative hash; (level, node) keys are near-sequential,
  // this spreads them across sets.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
         (sets_ - 1);
}

const VerifiedTreeCache::Entry* VerifiedTreeCache::find(
    unsigned level, std::uint64_t node) const noexcept {
  const std::uint64_t key = key_of(level, node);
  const Entry* row = entries_.get() + set_of(key) * ways_;
  for (unsigned w = 0; w < ways_; ++w)
    if (row[w].valid && row[w].key == key) return &row[w];
  return nullptr;
}

VerifiedTreeCache::Entry* VerifiedTreeCache::find(
    unsigned level, std::uint64_t node) noexcept {
  return const_cast<Entry*>(std::as_const(*this).find(level, node));
}

std::size_t VerifiedTreeCache::occupied() const noexcept {
  std::size_t n = 0;
  for (const Entry& e : entries()) n += e.valid;
  return n;
}

void VerifiedTreeCache::install(unsigned level, std::uint64_t node,
                                const std::uint8_t* content, bool dirty) {
  const std::uint64_t key = key_of(level, node);
  Entry* row = entries_.get() + set_of(key) * ways_;
  // One relaxed load per way: the victim's stamp is carried in a local
  // instead of re-read per comparison (fills sit on the uniform-read miss
  // path, where the extra atomic traffic was measurable).
  Entry* victim = &row[0];
  std::uint64_t victim_lru = victim->lru.load(std::memory_order_relaxed);
  for (unsigned w = 0; w < ways_; ++w) {
    if (!row[w].valid) {
      victim = &row[w];
      break;
    }
    const std::uint64_t w_lru = row[w].lru.load(std::memory_order_relaxed);
    if (w_lru < victim_lru) {
      victim = &row[w];
      victim_lru = w_lru;
    }
  }
  if (victim->valid && victim->dirty) {
    write_back(*victim);
    count(MetricId::kTreeCacheWritebacks);
  }
  victim->key = key;
  victim->valid = true;
  victim->dirty = dirty;
  std::memcpy(victim->content.data(), content, BonsaiTree::kLineBytes);
  touch(*victim);
  count(MetricId::kTreeCacheFills);
}

void VerifiedTreeCache::write_back(const Entry& e) {
  const unsigned level = level_of(e.key);
  const std::uint64_t node = node_of(e.key);
  if (level > 0)
    std::memcpy(tree_.node_span(level, node).data(), e.content.data(),
                BonsaiTree::kLineBytes);
  // Level 0 (counter lines) is the engine's storage and never goes stale
  // here — `update` requires content already serialized — so only the tag
  // needs propagating.
  const std::uint64_t tag = tree_.mac_of(
      level, node, BonsaiTree::LineView(e.content.data(),
                                        BonsaiTree::kLineBytes));
  tree_.walk_from(level, node, tag,
                  [this](unsigned lvl, std::uint64_t n, unsigned slot,
                         std::uint64_t t) {
                    if (Entry* anc = find(lvl, n)) {
                      store_le64(anc->content.data() + 8 * slot, t);
                      anc->dirty = true;
                      return BonsaiTree::StepAction::kStopOk;
                    }
                    store_le64(tree_.node_span(lvl, n).data() + 8 * slot, t);
                    return BonsaiTree::StepAction::kContinue;
                  });
}

bool VerifiedTreeCache::verify(std::uint64_t line,
                               BonsaiTree::LineView content) {
  if (!enabled()) return tree_.verify_leaf(line, content);

  if (Entry* leaf = find(0, line)) {
    // The resident copy was authenticated on fill and tracks every
    // update, so a byte compare IS the verification — zero MACs. It is
    // still an accept/reject decision over attacker-influenced bytes, so
    // it gets the constant-time compare like every other verification.
    touch(*leaf);
    count(MetricId::kTreeCacheHits);
    return ct_equal(leaf->content.data(), content.data(),
                    BonsaiTree::kLineBytes);
  }

  path_.clear();
  bool truncated = false;
  const unsigned top = tree_.top_level();
  const bool ok = tree_.walk_from(
      0, line, tree_.mac_of(0, line, content),
      [&](unsigned lvl, std::uint64_t node, unsigned slot, std::uint64_t tag) {
        if (lvl < top) {
          if (Entry* anc = find(lvl, node)) {
            touch(*anc);
            truncated = true;
            return ct_equal_u64(load_le64(anc->content.data() + 8 * slot),
                                tag)
                       ? BonsaiTree::StepAction::kStopOk
                       : BonsaiTree::StepAction::kStopFail;
          }
          path_.emplace_back(lvl, node);
        }
        return ct_equal_u64(
                   load_le64(tree_.node_span(lvl, node).data() + 8 * slot),
                   tag)
                   ? BonsaiTree::StepAction::kContinue
                   : BonsaiTree::StepAction::kStopFail;
      });
  count(truncated ? MetricId::kTreeCacheHits : MetricId::kTreeCacheMisses);
  if (!ok) return false;

  // The whole path authenticated — it is now frontier. Copy from live
  // backing at install time, not walk time: an eviction write-back during
  // an earlier install may have refreshed a slot since the walk read it.
  // No pre-install find() needed: every queued (lvl, node) MISSED during
  // the walk, and install() only ever (re)fills the keys it is given — a
  // preceding install cannot create one of the remaining path keys, and
  // the leaf key (0, line) missed at the top of this function.
  for (const auto& [lvl, node] : path_)
    install(lvl, node, tree_.node_span(lvl, node).data(), /*dirty=*/false);
  install(0, line, content.data(), /*dirty=*/false);
  return true;
}

bool VerifiedTreeCache::probe(std::uint64_t line,
                              BonsaiTree::LineView content,
                              bool& resident) const {
  if (!enabled()) {
    resident = true;  // nothing to warm — never bounce to the writer path
    return tree_.verify_leaf(line, content);
  }

  if (const Entry* leaf = find(0, line)) {
    // Same verdict as verify()'s resident hit; restamping stale recency
    // is the sole mutation (relaxed atomic, see touch()).
    touch(*leaf);
    count(MetricId::kTreeCacheProbeHits);
    resident = true;
    return ct_equal(leaf->content.data(), content.data(),
                    BonsaiTree::kLineBytes);
  }

  // Cold line: authenticate via the walk, truncating at any cached
  // ancestor exactly like verify() — but install nothing. `resident`
  // stays false so the caller can occasionally route the line through
  // the exclusive path, where verify() warms the frontier.
  resident = false;
  const unsigned top = tree_.top_level();
  const bool ok = tree_.walk_from(
      0, line, tree_.mac_of(0, line, content),
      [&](unsigned lvl, std::uint64_t node, unsigned slot, std::uint64_t tag) {
        if (lvl < top) {
          if (const Entry* anc = find(lvl, node)) {
            touch(*anc);
            return ct_equal_u64(load_le64(anc->content.data() + 8 * slot),
                                tag)
                       ? BonsaiTree::StepAction::kStopOk
                       : BonsaiTree::StepAction::kStopFail;
          }
        }
        return ct_equal_u64(
                   load_le64(tree_.node_span(lvl, node).data() + 8 * slot),
                   tag)
                   ? BonsaiTree::StepAction::kContinue
                   : BonsaiTree::StepAction::kStopFail;
      });
  count(MetricId::kTreeCacheProbeMisses);
  return ok;
}

void VerifiedTreeCache::update(std::uint64_t line,
                               BonsaiTree::LineView content) {
  if (!enabled()) {
    tree_.update_leaf(line, content);
    return;
  }

  // Track the new leaf bytes (never dirty: engines serialize into counter
  // storage before calling, so backing already matches).
  if (Entry* leaf = find(0, line)) {
    std::memcpy(leaf->content.data(), content.data(), BonsaiTree::kLineBytes);
    touch(*leaf);
  } else {
    install(0, line, content.data(), /*dirty=*/false);
  }

  const std::uint64_t tag = tree_.mac_of(0, line, content);
  const std::uint64_t parent = BonsaiGeometry::parent_of(line);
  const unsigned slot = BonsaiGeometry::slot_in_parent(line);
  if (tree_.top_level() == 1) {
    // Parent is the trusted root level: nothing to defer.
    store_le64(tree_.node_span(1, parent).data() + 8 * slot, tag);
    count(MetricId::kTreeCacheHits);
    return;
  }
  if (Entry* anc = find(1, parent)) {
    store_le64(anc->content.data() + 8 * slot, tag);
    anc->dirty = true;
    touch(*anc);
    count(MetricId::kTreeCacheHits);
    return;
  }
  // Absorb the backing bytes unverified — the same bytes the eager
  // read-modify-write folds in, so detection outcomes are unchanged (a
  // corrupted sibling slot still fails one level down) — and defer the
  // ancestor MACs until write-back.
  std::array<std::uint8_t, BonsaiTree::kLineBytes> node;
  std::memcpy(node.data(), tree_.node_span(1, parent).data(),
              BonsaiTree::kLineBytes);
  store_le64(node.data() + 8 * slot, tag);
  install(1, parent, node.data(), /*dirty=*/true);
  count(MetricId::kTreeCacheMisses);
}

void VerifiedTreeCache::flush() {
  if (!enabled()) return;
  count(MetricId::kTreeCacheFlushes);
  // Level-ascending passes: writing back a level-L node may dirty a cached
  // ancestor at L+1, which a later pass then picks up.
  const unsigned top = tree_.top_level();
  for (unsigned lvl = 0; lvl < top; ++lvl) {
    for (Entry& e : entries()) {
      if (e.valid && e.dirty && level_of(e.key) == lvl) {
        write_back(e);
        e.dirty = false;
        count(MetricId::kTreeCacheWritebacks);
      }
    }
  }
  invalidate_all();
}

void VerifiedTreeCache::invalidate_all() noexcept {
  for (Entry& e : entries()) {
    e.valid = false;
    e.dirty = false;
  }
}

}  // namespace secmem
