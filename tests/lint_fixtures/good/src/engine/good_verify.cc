// Fixture: staging paths that verify before applying — and the
// near-miss shapes the dataflow rule must NOT fire on.
// Never compiled — scanned by secmem-lint in tests/test_lint.cc.
#include <istream>
#include <span>
#include <utility>
#include <vector>

class GoodEngine {
 public:
  // Verification dominates the member write: clean.
  bool restore_image(std::istream& in) {
    std::vector<unsigned char> buf(64);
    in.read(reinterpret_cast<char*>(buf.data()), 64);
    unsigned char tag[8] = {};
    in.read(reinterpret_cast<char*>(tag), 8);
    if (!secmem::ct_equal(tag, expected_, 8)) return false;
    ciphertext_ = buf;
    return true;
  }

  // Tainted return dominated by a verify_* call: clean.
  Staged stage_image(std::istream& in) {
    Staged staged{std::move(arena_)};  // move ADOPTS the member, no alias
    in.read(reinterpret_cast<char*>(staged.cmd), 16);
    if (!verify_seal(staged)) return Staged{};
    return staged;
  }

  // Span-staged delta: every return of the staged value follows the
  // check, and the early exit returns a fresh value.
  StagedDelta stage_delta(std::span<const unsigned char> payload) {
    if (payload.size() < 80) return StagedDelta{};
    StagedDelta staged{payload.subspan(80)};
    if (!secmem::ct_equal_u64(mac_of(payload), mac_)) return StagedDelta{};
    return staged;
  }

  // Delegating wrapper: returns a call result, not a tainted local.
  bool restore(std::istream& in) { return restore_tail(in); }

  // A member passed by VALUE as a size is not a member alias; filling
  // the local from the stream mutates no member state.
  bool stage_parts(std::istream& in) {
    std::vector<unsigned char> parts(count_);
    in.read(reinterpret_cast<char*>(parts.data()), 8);
    local_use(parts);
    return true;
  }

 private:
  bool restore_tail(std::istream& in);
  std::vector<unsigned char> ciphertext_;
  unsigned char expected_[8];
  Arena arena_;
  unsigned count_ = 0;
  unsigned long mac_ = 0;
};
