// tools/secmem-lint — drives the real linter binary over the fixture
// trees in tests/lint_fixtures/ (one deliberate violation per rule, plus
// a tree of near-misses that must stay clean) and over the repository
// itself, which must lint clean with the checked-in allowlist.
//
// Paths come in as compile definitions from tests/CMakeLists.txt:
//   SECMEM_LINT_BIN       absolute path of the built secmem-lint
//   SECMEM_LINT_FIXTURES  absolute path of tests/lint_fixtures
//   SECMEM_REPO_ROOT      absolute path of the source tree
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::vector<std::string> lines;

  bool has(const std::string& fragment) const {
    for (const std::string& l : lines)
      if (l.find(fragment) != std::string::npos) return true;
    return false;
  }
  std::size_t count_rule(const std::string& rule) const {
    std::size_t n = 0;
    for (const std::string& l : lines)
      if (l.find(": " + rule + ":") != std::string::npos) ++n;
    return n;
  }
};

LintRun run_lint(const std::string& args) {
  const std::string cmd =
      std::string(SECMEM_LINT_BIN) + " " + args + " 2>/dev/null";
  LintRun result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return result;
  char buf[1024];
  std::string line;
  while (std::fgets(buf, sizeof(buf), pipe)) {
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    result.lines.push_back(line);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

const std::string kBad = std::string(SECMEM_LINT_FIXTURES) + "/bad";
const std::string kGood = std::string(SECMEM_LINT_FIXTURES) + "/good";

TEST(SecmemLint, BadFixtureTripsEveryTokenRule) {
  const LintRun run = run_lint("--root " + kBad);
  EXPECT_EQ(run.exit_code, 1) << "findings must exit 1";
  // One demonstration per rule, at the expected site.
  EXPECT_TRUE(run.has("src/engine/bad_compare.cc:7: ct-compare"));
  EXPECT_TRUE(run.has("src/engine/bad_compare.cc:11: ct-compare"));
  EXPECT_TRUE(run.has("src/engine/bad_compare.cc:15: ct-compare"));
  EXPECT_TRUE(run.has("src/engine/bad_mutex.h:7: raw-mutex"));
  EXPECT_TRUE(run.has("src/engine/bad_mutex.h:8: raw-mutex"));
  EXPECT_TRUE(run.has("src/engine/bad_mutex.h:11: raw-mutex"));
  EXPECT_TRUE(run.has("src/engine/bad_mutex.h:15: raw-mutex"));
  EXPECT_TRUE(run.has("src/engine/bad_mutex.h:16: raw-mutex"));
  EXPECT_TRUE(run.has("src/sim/bad_rand.cc:6: sim-rand"));
  EXPECT_TRUE(run.has("src/sim/bad_rand.cc:7: sim-rand"));
  EXPECT_TRUE(run.has("src/sim/bad_rand.cc:8: sim-rand"));
  EXPECT_TRUE(run.has("src/dram/bad_stat.cc:5: stat-name"));
  EXPECT_TRUE(run.has("src/dram/bad_stat.cc:6: stat-name"));
  EXPECT_TRUE(run.has("src/tree/bad_include.cc:2: crypto-include"));
  EXPECT_TRUE(run.has("src/tree/bad_include.cc:3: crypto-include"));
  EXPECT_TRUE(run.has("src/tree/bad_include.cc:4: crypto-include"));
  EXPECT_TRUE(run.has("src/engine/bad_throw.cc:6: no-throw-engine"));
  EXPECT_TRUE(run.has("src/engine/bad_throw.cc:10: no-throw-engine"));
  EXPECT_TRUE(run.has("src/engine/bad_throw.cc:17: no-throw-engine"));
  EXPECT_TRUE(run.has("src/counters/bad_throw.cc:5: no-throw-engine"));
  // The registered-namespace call must NOT fire.
  EXPECT_EQ(run.count_rule("stat-name"), 2u);
  // Exactly the four demonstration throws — argument-contract types in
  // the good tree stay silent (covered by GoodFixtureLintsClean).
  EXPECT_EQ(run.count_rule("no-throw-engine"), 4u);
}

TEST(SecmemLint, BadFixtureTripsEveryFlowRule) {
  const LintRun run = run_lint("--root " + kBad);
  EXPECT_EQ(run.exit_code, 1);
  // verify-before-apply: all four sink shapes, plus a span-staged
  // return ahead of its ct_equal (the span is tainted whatever its name).
  EXPECT_TRUE(run.has("src/engine/bad_verify.cc:13: verify-before-apply"));
  EXPECT_TRUE(run.has("src/engine/bad_verify.cc:14: verify-before-apply"));
  EXPECT_TRUE(run.has("src/engine/bad_verify.cc:22: verify-before-apply"));
  EXPECT_TRUE(run.has("src/engine/bad_verify.cc:29: verify-before-apply"));
  EXPECT_TRUE(run.has("src/engine/bad_verify.cc:35: verify-before-apply"));
  EXPECT_EQ(run.count_rule("verify-before-apply"), 5u);
  // status-discard: dead variable, overwrite, trailing dead write.
  EXPECT_TRUE(run.has("src/engine/bad_status.cc:11: status-discard"));
  EXPECT_TRUE(run.has("src/engine/bad_status.cc:16: status-discard"));
  EXPECT_TRUE(run.has("src/engine/bad_status.cc:23: status-discard"));
  EXPECT_EQ(run.count_rule("status-discard"), 3u);
  // lock-discipline: each guarded member, per offending function.
  EXPECT_TRUE(run.has("src/engine/bad_lock.h:10: lock-discipline"));
  EXPECT_TRUE(run.has("src/engine/bad_lock.h:13: lock-discipline"));
  EXPECT_EQ(run.count_rule("lock-discipline"), 3u);
  // secret-branch: if condition, ternary, both short-circuit operands.
  EXPECT_TRUE(run.has("src/crypto/bad_branch.cc:7: secret-branch"));
  EXPECT_TRUE(run.has("src/crypto/bad_branch.cc:8: secret-branch"));
  EXPECT_TRUE(run.has("src/crypto/bad_branch.cc:12: secret-branch"));
  EXPECT_EQ(run.count_rule("secret-branch"), 4u);
  // knob-registry: missing CI leg AND missing docs, same knob.
  EXPECT_TRUE(run.has("src/engine/bad_knob.cc:7: knob-registry"));
  EXPECT_EQ(run.count_rule("knob-registry"), 2u);
}

TEST(SecmemLint, GoodFixtureLintsClean) {
  const LintRun run = run_lint("--root " + kGood);
  EXPECT_EQ(run.exit_code, 0) << "near-misses (comments, strings, "
                                 "substrings, inline allow, verified "
                                 "staging, guarded access, registered "
                                 "knobs) must not fire";
  EXPECT_TRUE(run.lines.empty());
  // The good tree's inline allow is live, so --check-allowlist is clean
  // too.
  EXPECT_EQ(run_lint("--root " + kGood + " --check-allowlist").exit_code, 0);
}

TEST(SecmemLint, RepoLintsCleanOnlyWithAllowlist) {
  // The repository must lint clean WITH the checked-in allowlist —
  // including --check-allowlist, proving no suppression is stale — and
  // must NOT lint clean without it, proving every entry is live.
  const std::string root = SECMEM_REPO_ROOT;
  const LintRun with =
      run_lint("--root " + root + " --allowlist " + root +
               "/tools/secmem-lint.allow --check-allowlist");
  EXPECT_EQ(with.exit_code, 0) << "repository must lint clean";
  const LintRun without = run_lint("--root " + root);
  EXPECT_EQ(without.exit_code, 1)
      << "allowlist entries must correspond to real findings";
  // Every finding surfaced without the allowlist must be one the
  // allowlist deliberately covers — nothing else may hide behind it.
  for (const std::string& l : without.lines) {
    const bool covered =
        (l.find("src/engine/secure_memory.cc") != std::string::npos &&
         l.find(": ct-compare:") != std::string::npos) ||
        (l.find("src/engine/sharded_memory.cc") != std::string::npos &&
         l.find(": ct-compare:") != std::string::npos) ||
        (l.find("tests/test_metrics.cc") != std::string::npos &&
         l.find(": stat-name:") != std::string::npos) ||
        (l.find("tests/test_stats.cc") != std::string::npos &&
         l.find(": stat-name:") != std::string::npos);
    EXPECT_TRUE(covered) << "unexpected finding outside the allowlist: "
                         << l;
  }
}

TEST(SecmemLint, StaleAllowlistEntryFailsCheck) {
  const std::string stale =
      std::string(SECMEM_LINT_FIXTURES) + "/stale.allow";
  // Without --check-allowlist the dead entry goes unnoticed...
  EXPECT_EQ(
      run_lint("--root " + kGood + " --allowlist " + stale).exit_code, 0);
  // ...with it, the run fails and names the entry.
  const LintRun check = run_lint("--root " + kGood + " --allowlist " +
                                 stale + " --check-allowlist");
  EXPECT_EQ(check.exit_code, 1);
  EXPECT_TRUE(check.has("stale-allow"));
  EXPECT_TRUE(check.has("src/engine/good_compare.cc: sim-rand"));
}

TEST(SecmemLint, StaleInlineAllowFailsCheck) {
  EXPECT_EQ(run_lint("--root " + kBad).count_rule("stale-allow"), 0u);
  const LintRun check = run_lint("--root " + kBad + " --check-allowlist");
  EXPECT_EQ(check.exit_code, 1);
  EXPECT_TRUE(
      check.has("src/engine/bad_stale_allow.cc:5: stale-allow"));
}

TEST(SecmemLint, JsonOutputIsWellFormedAndComplete) {
  const LintRun text = run_lint("--root " + kBad);
  const LintRun json = run_lint("--root " + kBad + " --json");
  EXPECT_EQ(json.exit_code, 1) << "--json must not change the exit code";
  ASSERT_GE(json.lines.size(), 2u);
  EXPECT_EQ(json.lines.front(), "[");
  EXPECT_EQ(json.lines.back(), "]");
  // One JSON object per text finding, same order.
  EXPECT_EQ(json.lines.size() - 2, text.lines.size());
  EXPECT_TRUE(json.has("\"file\": \"src/engine/bad_verify.cc\""));
  EXPECT_TRUE(json.has("\"rule\": \"verify-before-apply\""));
  EXPECT_TRUE(json.has("\"line\": 29"));
  // An empty result is an empty array.
  const LintRun clean = run_lint("--root " + kGood + " --json");
  EXPECT_EQ(clean.exit_code, 0);
  ASSERT_EQ(clean.lines.size(), 1u);
  EXPECT_EQ(clean.lines.front(), "[]");
}

TEST(SecmemLint, BadUsageExitsTwo) {
  EXPECT_EQ(run_lint("--no-such-flag").exit_code, 2);
  EXPECT_EQ(run_lint("--root " + kGood + " /no/such/path").exit_code, 2);
}

}  // namespace
