// Fixture: stream- or span-sourced bytes reaching member state, or
// escaping as a staged result, before any verification.
// Never compiled — scanned by secmem-lint in tests/test_lint.cc.
#include <algorithm>
#include <istream>
#include <vector>

class BadEngine {
 public:
  bool restore_image(std::istream& in) {
    std::vector<unsigned char> buf(64);
    in.read(reinterpret_cast<char*>(buf.data()), 64);
    ciphertext_ = buf;  // rule: verify-before-apply
    std::copy(buf.begin(), buf.end(), macs_.begin());  // rule: verify-before-apply
    return true;
  }

  bool apply_delta(std::istream& in) {
    std::vector<unsigned char> cmds(32);
    in.read(reinterpret_cast<char*>(cmds.data()), 32);
    Sections sections{ciphertext_, macs_};
    apply_commands(sections, cmds);  // rule: verify-before-apply
    return true;
  }

  StagedDelta stage_delta(std::istream& in) {
    StagedDelta staged;
    in.read(reinterpret_cast<char*>(staged.cmd), 16);
    return staged;  // rule: verify-before-apply
  }

  // A span-staged delta whose early path returns ahead of the check.
  StagedDelta stage_delta(std::span<const unsigned char> payload) {
    StagedDelta staged{payload.subspan(80)};
    if (payload[0] == 0) return staged;  // rule: verify-before-apply
    if (!secmem::ct_equal_u64(mac_of(payload), expected_)) return {};
    return staged;
  }

 private:
  std::vector<unsigned char> ciphertext_;
  std::vector<unsigned char> macs_;
  unsigned long expected_ = 0;
};
