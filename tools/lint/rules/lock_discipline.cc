// lock-discipline: a gcc-friendly subset of clang's thread-safety
// analysis. A member annotated SECMEM_GUARDED_BY may only be touched in
// member functions that construct some guard (MutexLock,
// SeqReadLock/SeqWriteLock, lock_in_order), are
// annotated SECMEM_REQUIRES(...) — the caller holds it — or opt out with
// SECMEM_NO_THREAD_SAFETY_ANALYSIS. Constructors and destructors are
// exempt (exclusive access by construction).
//
// Deliberately coarse: we check "some guard in this function", not which
// mutex it covers — cross-mutex mixups are the clang TSA CI leg's job
// when a clang toolchain is available; this rule keeps the invariant
// enforced under the gcc-only container.
//
// Scoping: a guarded member is checked only in its declaring file pair
// (the header that declares it and the same-stem .cc), which is where
// every access in this codebase lives; checking by bare member name
// repo-wide would trip on unrelated classes reusing common field names.
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../rules.h"

namespace secmem_lint {

namespace {

const std::set<std::string, std::less<>> kGuardIdents = {
    "MutexLock",    "SeqLock",   "SeqReadLock", "SeqWriteLock",
    "lock_in_order", "lock_guard", "unique_lock", "scoped_lock"};

std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

}  // namespace

void check_lock_discipline(const SourceFile& sf, const RepoContext& ctx,
                           Emit emit) {
  const auto it = ctx.guarded_by_stem.find(file_stem(sf.rel));
  if (it == ctx.guarded_by_stem.end()) return;
  const std::vector<GuardedMember>& guarded = it->second;

  const LexedFile& f = sf.lexed;
  for (const FuncInfo& fn : sf.model.funcs) {
    if (fn.class_name.empty() || fn.is_ctor_or_dtor || fn.no_thread_safety ||
        fn.requires_lock)
      continue;
    const std::string cls = last_component(fn.class_name);

    std::vector<const GuardedMember*> mine;
    for (const GuardedMember& g : guarded)
      if (last_component(g.class_name) == cls) mine.push_back(&g);
    if (mine.empty()) continue;

    bool has_guard = false;
    for (std::size_t i = fn.body_begin; i < fn.body_end && !has_guard; ++i)
      if (f.tokens[i].kind == Tok::kIdent && kGuardIdents.count(f.tokens[i].text))
        has_guard = true;
    if (has_guard) continue;

    // Names shadowed by a parameter or local are not the member.
    std::set<std::string, std::less<>> shadowed;
    for (const Param& p : fn.params) shadowed.insert(p.name);
    for (const LocalDecl& d : extract_local_decls(f, sf.model, fn))
      shadowed.insert(d.name);

    for (const GuardedMember* g : mine) {
      if (shadowed.count(g->member)) continue;
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = f.tokens[i];
        if (t.kind != Tok::kIdent || t.text != g->member) continue;
        emit(t.pos, "lock-discipline",
             "member '" + g->member + "' (SECMEM_GUARDED_BY(" + g->mutex +
                 ")) touched in " + cls + "::" + fn.name +
                 "() which constructs no lock guard; take the guard, "
                 "annotate SECMEM_REQUIRES, or opt out with "
                 "SECMEM_NO_THREAD_SAFETY_ANALYSIS");
        break;  // one finding per member per function
      }
    }
  }
}

}  // namespace secmem_lint
