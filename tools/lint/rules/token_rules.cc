// The six token-level rules, ported from the original single-file
// scanner. They operate on the blanked views (comments/strings removed)
// rather than the token stream — their matching is positional substring
// work and the views have survived years of fixtures.
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../rules.h"

namespace secmem_lint {

namespace {

/// All positions where `name` appears as a complete identifier.
std::vector<std::size_t> find_idents(const std::string& code,
                                     std::string_view name) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + name.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

/// True if the identifier at `pos` is qualified as std:: (possibly
/// ::std:: or std::ranges::).
bool std_qualified(const std::string& code, std::size_t pos) {
  auto skip_ws_back = [&](std::size_t p) {
    while (p > 0 && std::isspace(static_cast<unsigned char>(code[p - 1])))
      --p;
    return p;
  };
  std::size_t p = skip_ws_back(pos);
  if (p < 2 || code[p - 1] != ':' || code[p - 2] != ':') return false;
  p = skip_ws_back(p - 2);
  std::size_t end = p;
  while (p > 0 && ident_char(code[p - 1])) --p;
  const std::string_view qual(code.data() + p, end - p);
  if (qual == "std") return true;
  if (qual == "ranges") return std_qualified(code, p);
  return false;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Registered stat namespaces. Entries may themselves be dotted
/// ("snapshot.delta"): a stat name passes if its first segment OR its
/// first two segments match an entry, so sub-namespaces can be carved
/// out without opening the whole parent.
const std::set<std::string, std::less<>> kStatNamespaces = {
    "bench",     "cache", "dram",     "engine",         "metacache",
    "reenc",     "sim",   "snapshot", "snapshot.delta", "trace",
    "tree_cache"};

}  // namespace

std::string file_stem(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  const std::size_t slash = rel.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return rel;
  return rel.substr(0, dot);
}

const std::set<std::string>& all_rule_ids() {
  static const std::set<std::string> ids = {
      "ct-compare",      "raw-mutex",       "sim-rand",
      "stat-name",       "crypto-include",  "no-throw-engine",
      "verify-before-apply", "status-discard", "lock-discipline",
      "secret-branch",   "knob-registry"};
  return ids;
}

void check_ct_compare(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code;
  const char* msg =
      "variable-time compare on a verification path; use "
      "secmem::ct_equal/ct_equal_u64 (common/ct.h)";
  for (const char* name : {"memcmp", "bcmp"}) {
    for (const std::size_t pos : find_idents(code, name))
      emit(pos, "ct-compare", std::string(msg) + " [" + name + "]");
  }
  for (const std::size_t pos : find_idents(code, "equal")) {
    if (std_qualified(code, pos))
      emit(pos, "ct-compare", std::string(msg) + " [std::equal]");
  }
}

void check_raw_mutex(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code;
  const char* msg =
      "naked std mutex invisible to thread-safety analysis; use "
      "secmem::Mutex/MutexLock (common/thread_annotations.h)";
  for (const char* name :
       {"mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
        "shared_mutex", "shared_timed_mutex", "shared_lock"}) {
    for (const std::size_t pos : find_idents(code, name)) {
      if (std_qualified(code, pos))
        emit(pos, "raw-mutex",
             std::string(msg) + " [std::" + name + "]");
    }
  }
  // Reader-side primitives called directly (mu.lock_shared() etc.)
  // bypass both the capability annotations and the SeqLock reader
  // indicator's ticket; only thread_annotations.h itself may touch them.
  for (const char* name :
       {"lock_shared", "unlock_shared", "try_lock_shared"}) {
    for (const std::size_t pos : find_idents(code, name))
      emit(pos, "raw-mutex", std::string(msg) + " [" + name + "]");
  }
}

void check_sim_rand(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code;
  const char* msg =
      "non-reproducible randomness in simulator code; use "
      "secmem::Xoshiro256 (common/rng.h)";
  for (const char* name :
       {"rand", "srand", "rand_r", "drand48", "random_device", "mt19937",
        "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "knuth_b"}) {
    for (const std::size_t pos : find_idents(code, name))
      emit(pos, "sim-rand", std::string(msg) + " [" + name + "]");
  }
}

void check_no_throw_engine(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code;
  for (const std::size_t pos : find_idents(code, "throw")) {
    // The thrown expression's head: a possibly std::-qualified type
    // name right after the keyword. `throw;` (rethrow) and non-type
    // heads fall through to a finding — the rule is about what leaves
    // the engine, and anything but the whitelisted argument-contract
    // types does.
    std::size_t p = pos + 5;
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])))
      ++p;
    std::string head;
    while (p < code.size() && (ident_char(code[p]) || code[p] == ':'))
      head += code[p++];
    if (starts_with(head, "std::")) head.erase(0, 5);
    if (head == "out_of_range" || head == "invalid_argument" ||
        head == "length_error")
      continue;
    emit(pos, "no-throw-engine",
         "engine/counter datapaths report failures via secmem::Status, "
         "not exceptions; only argument-contract throws "
         "(std::out_of_range, std::invalid_argument, std::length_error) "
         "are allowed [" +
             (head.empty() ? "throw" : "throw " + head) + "]");
  }
}

void check_stat_name(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code;
  const std::string& code_strings = sf.lexed.views.code_strings;
  for (const char* method : {"counter", "scalar", "histogram"}) {
    for (const std::size_t pos : find_idents(code, method)) {
      // Match a call whose first argument is a string literal:
      //   counter ( "name...
      std::size_t p = pos + std::string_view(method).size();
      while (p < code.size() &&
             std::isspace(static_cast<unsigned char>(code[p])))
        ++p;
      if (p >= code.size() || code[p] != '(') continue;
      ++p;
      // Skip whitespace in the strings-kept view: in `code` the literal
      // itself is blanked to spaces and would be skipped right over.
      while (p < code_strings.size() &&
             std::isspace(static_cast<unsigned char>(code_strings[p])))
        ++p;
      if (p >= code_strings.size() || code_strings[p] != '"') continue;
      std::string name;
      for (std::size_t q = p + 1;
           q < code_strings.size() && code_strings[q] != '"'; ++q) {
        if (code_strings[q] == '\\') break;  // escapes: give up, skip
        name += code_strings[q];
      }
      const std::size_t dot1 = name.find('.');
      const std::string head = name.substr(0, dot1);
      bool known = kStatNamespaces.count(head) != 0;
      if (!known && dot1 != std::string::npos) {
        const std::string head2 = name.substr(0, name.find('.', dot1 + 1));
        known = kStatNamespaces.count(head2) != 0;
      }
      if (!known)
        emit(p, "stat-name",
             "stat name outside the registered namespaces [\"" + name +
                 "\" via " + method + "()]");
    }
  }
}

void check_crypto_include(const SourceFile& sf, Emit emit) {
  const std::string& code = sf.lexed.views.code_strings;
  std::size_t pos = 0;
  while ((pos = code.find('#', pos)) != std::string::npos) {
    std::size_t p = pos + 1;
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])) &&
           code[p] != '\n')
      ++p;
    if (code.compare(p, 7, "include") != 0) {
      ++pos;
      continue;
    }
    std::size_t end = code.find('\n', p);
    if (end == std::string::npos) end = code.size();
    const std::string target = code.substr(p + 7, end - p - 7);
    for (const char* banned :
         {"immintrin", "wmmintrin", "x86intrin", "emmintrin", "tmmintrin",
          "smmintrin", "nmmintrin", "arm_neon", "_ni.", "gf64_clmul"}) {
      if (target.find(banned) != std::string::npos) {
        emit(pos, "crypto-include",
             "intrinsics / crypto-backend internals included outside "
             "src/crypto; go through crypto_backend.h [" +
                 std::string(banned) + "]");
        break;
      }
    }
    pos = end;
  }
}

}  // namespace secmem_lint
