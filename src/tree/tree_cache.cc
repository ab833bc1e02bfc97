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
  // Power-of-two sets so set_of() is a mask; round down, never below 1.
  sets_ = 1;
  while (sets_ * 2 * kWays <= total) sets_ *= 2;
  tag_lines_ = std::make_unique<TagLine[]>(sets_);
  lru_lines_ = std::make_unique<LruLine[]>(sets_);
  dirty_ = std::make_unique<bool[]>(sets_ * kWays);
  lines_ = std::make_unique<Line[]>(sets_ * kWays);
  path_.reserve(tree_.geometry().total_levels());
}

std::size_t VerifiedTreeCache::occupied() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sets_ * kWays; ++i) n += valid(i);
  return n;
}

std::size_t VerifiedTreeCache::lru_way(std::size_t row) const noexcept {
  // One relaxed load per way, and a select rather than a branch per
  // comparison: recency order is random on a uniform stream, so a
  // branchy minimum mispredicts on most ways.
  std::size_t victim = row;
  std::uint64_t victim_lru = lru(row).load(std::memory_order_relaxed);
  for (std::size_t i = row + 1; i < row + kWays; ++i) {
    const std::uint64_t i_lru = lru(i).load(std::memory_order_relaxed);
    const bool older = i_lru < victim_lru;
    victim = older ? i : victim;
    victim_lru = older ? i_lru : victim_lru;
  }
  return victim;
}

void VerifiedTreeCache::fill(std::size_t i, std::uint64_t key,
                             const std::uint8_t* bytes, bool dirty) {
  if (valid(i) && dirty_[i]) {
    write_back(i);
    count(MetricId::kTreeCacheWritebacks);
  }
  way_tag(i) = key + 1;
  dirty_[i] = dirty;
  std::memcpy(content(i), bytes, BonsaiTree::kLineBytes);
  touch(i);
  count(MetricId::kTreeCacheFills);
}

void VerifiedTreeCache::admit(Lookup at, const std::uint8_t* bytes) {
  // An earlier fill of the same walk may have taken the set's free way.
  if (at.free != kNone && valid(at.free)) at = lookup(at.key);
  std::size_t way = at.free;
  if (way == kNone) {
    // A full set evicts only for a node declined once within the ghost
    // window: a second miss is the evidence of re-use that a first-touch
    // line of a uniform stream never shows.
    std::uint64_t& ghost = ghost_[ghost_slot(at.key)];
    if (ghost != at.key + 1) {
      ghost = at.key + 1;
      count(MetricId::kTreeCacheAdmitDeclines);
      return;
    }
    ghost = 0;
    way = lru_way(at.row);
  }
  fill(way, at.key, bytes, /*dirty=*/false);
}

void VerifiedTreeCache::write_back(std::size_t i) {
  const std::uint64_t key = key_at(i);
  const unsigned level = level_of(key);
  const std::uint64_t node = node_of(key);
  if (level > 0)
    std::memcpy(tree_.node_span(level, node).data(), content(i),
                BonsaiTree::kLineBytes);
  // Level 0 (counter lines) is the engine's storage and never goes stale
  // here — `update` requires content already serialized — so only the tag
  // needs propagating.
  const std::uint64_t node_tag = tree_.mac_of(
      level, node, BonsaiTree::LineView(content(i), BonsaiTree::kLineBytes));
  tree_.walk_from(level, node, node_tag,
                  [this](unsigned lvl, std::uint64_t n, unsigned slot,
                         std::uint64_t t) {
                    if (const std::size_t anc = lookup(key_of(lvl, n)).hit;
                        anc != kNone) {
                      store_le64(content(anc) + 8 * slot, t);
                      dirty_[anc] = true;
                      return BonsaiTree::StepAction::kStopOk;
                    }
                    store_le64(tree_.node_span(lvl, n).data() + 8 * slot, t);
                    return BonsaiTree::StepAction::kContinue;
                  });
}

bool VerifiedTreeCache::verify(std::uint64_t line,
                               BonsaiTree::LineView content) {
  if (!enabled()) return tree_.verify_leaf(line, content);

  const Lookup leaf = lookup(key_of(0, line));
  if (leaf.hit != kNone) {
    // The resident copy was authenticated on fill and tracks every
    // update, so a byte compare IS the verification — zero MACs. It is
    // still an accept/reject decision over attacker-influenced bytes, so
    // it gets the constant-time compare like every other verification.
    touch(leaf.hit);
    count(MetricId::kTreeCacheHits);
    return ct_equal(this->content(leaf.hit), content.data(),
                    BonsaiTree::kLineBytes);
  }

  path_.clear();
  bool truncated = false;
  const unsigned top = tree_.top_level();
  const bool ok = tree_.walk_from(
      0, line, tree_.mac_of(0, line, content),
      [&](unsigned lvl, std::uint64_t node, unsigned slot, std::uint64_t tag) {
        if (lvl < top) {
          const Lookup at = lookup(key_of(lvl, node));
          if (at.hit != kNone) {
            touch(at.hit);
            truncated = true;
            return ct_equal_u64(load_le64(this->content(at.hit) + 8 * slot),
                                tag)
                       ? BonsaiTree::StepAction::kStopOk
                       : BonsaiTree::StepAction::kStopFail;
          }
          path_.push_back(at);
        }
        return ct_equal_u64(
                   load_le64(tree_.node_span(lvl, node).data() + 8 * slot),
                   tag)
                   ? BonsaiTree::StepAction::kContinue
                   : BonsaiTree::StepAction::kStopFail;
      });
  count(truncated ? MetricId::kTreeCacheHits : MetricId::kTreeCacheMisses);
  if (!ok) return false;

  // The whole path authenticated — each node may now join the frontier,
  // if admit() takes it. Copy from live backing at fill time, not walk
  // time: an eviction write-back during an earlier fill may have
  // refreshed a slot since the walk read it. No pre-fill lookup needed:
  // every queued (lvl, node) MISSED during the walk, and a fill only ever
  // (re)fills the key it is given — a preceding fill cannot create one of
  // the remaining path keys, and the leaf key (0, line) missed at the top
  // of this function. A declined node just means the next walk through
  // it reads backing again.
  for (const Lookup& at : path_)
    admit(at, tree_.node_span(level_of(at.key), node_of(at.key)).data());
  admit(leaf, content.data());
  return true;
}

bool VerifiedTreeCache::probe(std::uint64_t line,
                              BonsaiTree::LineView content,
                              bool& resident) const {
  if (!enabled()) {
    resident = true;  // nothing to warm — never bounce to the writer path
    return tree_.verify_leaf(line, content);
  }

  if (const std::size_t leaf = lookup(key_of(0, line)).hit; leaf != kNone) {
    // Same verdict as verify()'s resident hit; restamping stale recency
    // is the sole mutation (relaxed atomic, see touch()).
    touch(leaf);
    count(MetricId::kTreeCacheProbeHits);
    resident = true;
    return ct_equal(this->content(leaf), content.data(),
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
          if (const std::size_t anc = lookup(key_of(lvl, node)).hit;
              anc != kNone) {
            touch(anc);
            return ct_equal_u64(load_le64(this->content(anc) + 8 * slot),
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
  if (const std::size_t leaf = lookup(key_of(0, line)).hit; leaf != kNone) {
    std::memcpy(this->content(leaf), content.data(), BonsaiTree::kLineBytes);
    touch(leaf);
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
  if (const std::size_t anc = lookup(key_of(1, parent)).hit; anc != kNone) {
    store_le64(this->content(anc) + 8 * slot, tag);
    dirty_[anc] = true;
    touch(anc);
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
    for (std::size_t i = 0; i < sets_ * kWays; ++i) {
      if (dirty_[i] && level_of(key_at(i)) == lvl) {
        write_back(i);
        dirty_[i] = false;
        count(MetricId::kTreeCacheWritebacks);
      }
    }
  }
  invalidate_all();
}

void VerifiedTreeCache::invalidate_all() noexcept {
  for (std::size_t i = 0; i < sets_ * kWays; ++i) {
    way_tag(i) = 0;
    dirty_[i] = false;
  }
}

}  // namespace secmem
