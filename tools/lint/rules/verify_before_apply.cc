// verify-before-apply: on src/engine staging paths (stage_*, restore*,
// *_delta), bytes that arrived from a stream or snapshot image must not
// reach member state until a constant-time verification (ct_equal /
// ct_equal_u64 / verify*) has run in the same function.
//
// Taint sources: istream parameters, Staged-typed parameters, and every
// span parameter — a staging function's span is the image (or a slice
// of one) it stages in place, whatever it is called. Taint propagates
// forward by name: a local whose initializer, assignment RHS, or
// sibling argument position mentions a tainted name becomes tainted.
// Member state is any trailing-underscore identifier plus
// "member-alias" locals — locals whose initializer captures a member by
// reference/aggregate (a bare `foo_` in the initializer, not moved
// from).
//
// Sinks (a finding when no verification call dominates them):
//   member_ = <tainted...>;          assignment into member state
//   memcpy/copy(member-ish, tainted) copy-family call mixing both
//   f(alias, tainted...)             mutating call through a member alias
//   return tainted; / return std::move(tainted);
//
// The return form is what keeps the stage_* bodies honest: deleting or
// reordering the ct_equal there, or returning the staged value on an
// early path ahead of it, makes `return staged;` fire. Returns are
// judged by position — any that precedes the first verification call
// fires, even when a later path does verify.
#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "../rules.h"

namespace secmem_lint {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool member_name(std::string_view s) {
  return s.size() > 1 && s.back() == '_';
}

bool scoped_fn(const FuncInfo& fn) {
  return fn.name.rfind("stage_", 0) == 0 || fn.name.rfind("restore", 0) == 0 ||
         ends_with(fn.name, "_delta");
}

bool tainted_param(const Param& p) {
  return p.type.find("istream") != std::string::npos ||
         p.type.find("Staged") != std::string::npos ||
         p.type.find("span") != std::string::npos;
}

bool span_mentions(const LexedFile& f, TokenSpan span,
                   const std::set<std::string, std::less<>>& names) {
  for (std::size_t i = span.begin; i < span.end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == Tok::kIdent && names.count(t.text)) return true;
  }
  return false;
}

bool span_mentions_member(const LexedFile& f, TokenSpan span,
                          const std::set<std::string, std::less<>>& aliases) {
  for (std::size_t i = span.begin; i < span.end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != Tok::kIdent) continue;
    if (member_name(t.text) || aliases.count(t.text)) return true;
  }
  return false;
}

/// Member names captured "bare" in an initializer: `foo_` followed by
/// `,` `)` `}` `;` or span end, not accessed through (`.`/`->` on either
/// side), and not the argument of std::move — moving a member INTO a
/// local adopts it, it does not alias it. Only reference declarations
/// and brace-initializers can alias: `vector<T> v(count_)` passes the
/// member by VALUE (a size, not a capture), while aggregates of
/// references (`MutSections s{ciphertext_, ...}`) and `auto& r = m_;`
/// genuinely hand out member state.
bool init_aliases_member(const LexedFile& f, const LocalDecl& d) {
  const TokenSpan init = d.init;
  const bool ref_type = d.type.find('&') != std::string::npos;
  const bool brace_init = punct_is(f, init.begin, "{");
  if (!ref_type && !brace_init) return false;
  for (std::size_t i = init.begin; i < init.end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != Tok::kIdent || !member_name(t.text)) continue;
    if (i + 1 < init.end) {
      const Token& n = f.tokens[i + 1];
      const bool bare = n.kind == Tok::kPunct &&
                        (n.text == "," || n.text == ")" || n.text == "}" ||
                         n.text == ";");
      if (!bare) continue;
    }
    if (i > init.begin) {
      const Token& p = f.tokens[i - 1];
      if (p.kind == Tok::kPunct && (p.text == "." || p.text == "->")) continue;
      if (p.kind == Tok::kPunct && p.text == "(" && i >= 2 &&
          tok_is(f, i - 2, "move"))
        continue;
    }
    return true;
  }
  return false;
}

const std::set<std::string, std::less<>> kCopyCallees = {"memcpy", "memmove",
                                                         "copy", "copy_n"};

bool verification_callee(std::string_view last) {
  return last == "ct_equal" || last == "ct_equal_u64" ||
         last.rfind("verify", 0) == 0;
}

}  // namespace

void check_verify_before_apply(const SourceFile& sf, Emit emit) {
  const LexedFile& f = sf.lexed;
  for (const FuncInfo& fn : sf.model.funcs) {
    if (fn.is_ctor_or_dtor || !scoped_fn(fn)) continue;

    std::set<std::string, std::less<>> tainted;
    std::set<std::string, std::less<>> locals;
    for (const Param& p : fn.params) {
      if (!p.name.empty()) locals.insert(p.name);
      if (tainted_param(p) && !p.name.empty()) tainted.insert(p.name);
    }
    if (tainted.empty()) continue;

    const auto decls = extract_local_decls(f, sf.model, fn);
    const auto calls = extract_calls(f, fn.body_begin, fn.body_end);
    const auto assigns = extract_assigns(f, fn.body_begin, fn.body_end);
    for (const LocalDecl& d : decls) locals.insert(d.name);

    // Position-ordered events: taint transfer and verification first
    // (so a sink at the same site sees the current state), then sinks.
    struct Event {
      std::size_t tok;
      int kind;  // 0 decl, 1 assign, 2 call
      std::size_t idx;
    };
    std::vector<Event> events;
    for (std::size_t i = 0; i < decls.size(); ++i)
      events.push_back({decls[i].name_tok, 0, i});
    for (std::size_t i = 0; i < assigns.size(); ++i)
      events.push_back({assigns[i].eq_tok, 1, i});
    for (std::size_t i = 0; i < calls.size(); ++i)
      events.push_back({calls[i].callee_tok, 2, i});
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.tok < b.tok; });

    std::set<std::string, std::less<>> aliases;
    bool verified = false;
    std::size_t first_verify_tok = SIZE_MAX;
    std::set<std::size_t> reported;
    auto report = [&](std::size_t tok, const std::string& what) {
      if (!reported.insert(tok).second) return;
      emit(f.tokens[tok].pos, "verify-before-apply",
           what + " in " + fn.name +
               "() before any ct_equal/verify call; authenticate "
               "stream/image-sourced bytes before they can reach member "
               "state (SECURITY.md \"verify-before-apply\")");
    };
    auto fire = [&](std::size_t tok, const std::string& what) {
      if (!verified) report(tok, what);
    };

    for (const Event& ev : events) {
      if (ev.kind == 0) {
        const LocalDecl& d = decls[ev.idx];
        if (!d.has_init) continue;
        if (span_mentions(f, d.init, tainted)) tainted.insert(d.name);
        if (init_aliases_member(f, d)) aliases.insert(d.name);
      } else if (ev.kind == 1) {
        const AssignSite& a = assigns[ev.idx];
        const std::string lhs(f.tokens[a.lhs_base_tok].text);
        const bool rhs_tainted = span_mentions(f, a.rhs, tainted);
        if (rhs_tainted && locals.count(lhs) && !member_name(lhs))
          tainted.insert(lhs);
        if (rhs_tainted && (member_name(lhs) || aliases.count(lhs)))
          fire(a.lhs_base_tok,
               "assignment into member state from tainted data");
      } else {
        const CallSite& c = calls[ev.idx];
        if (verification_callee(c.callee_last)) {
          if (!verified) first_verify_tok = c.callee_tok;
          verified = true;
          continue;
        }
        bool any_tainted =
            c.recv_tok != SIZE_MAX &&
            f.tokens[c.recv_tok].kind == Tok::kIdent &&
            tainted.count(f.tokens[c.recv_tok].text);
        bool any_member = false, any_alias = false;
        for (const TokenSpan& arg : c.args) {
          if (span_mentions(f, arg, tainted)) any_tainted = true;
          if (span_mentions_member(f, arg, aliases)) any_member = true;
          if (span_mentions(f, arg, aliases)) any_alias = true;
        }
        if (any_tainted) {
          // Reading/parsing tainted bytes into locals taints the locals
          // passed alongside (in.read(buf...), read_exact(in, buf)...).
          for (const TokenSpan& arg : c.args)
            for (std::size_t i = arg.begin; i < arg.end; ++i) {
              const Token& t = f.tokens[i];
              if (t.kind == Tok::kIdent && locals.count(t.text) &&
                  !member_name(t.text))
                tainted.insert(std::string(t.text));
            }
        }
        if (any_tainted && kCopyCallees.count(c.callee_last) && any_member)
          fire(c.callee_tok, "copy mixing member state and tainted data");
        else if (any_tainted && any_alias)
          fire(c.callee_tok,
               "call mutating member state (via alias) with tainted data");
      }
    }

    // `return tainted;` / `return std::move(tainted);` ahead of the
    // first verification — the staged result escapes to the commit path
    // unverified on that path.
    {
      const std::size_t end = std::min(fn.body_end, first_verify_tok);
      for (std::size_t i = fn.body_begin; i + 1 < end; ++i) {
        if (!tok_is(f, i, "return")) continue;
        std::size_t name_tok = SIZE_MAX;
        if (f.tokens[i + 1].kind == Tok::kIdent && i + 2 < fn.body_end &&
            punct_is(f, i + 2, ";"))
          name_tok = i + 1;
        else if (i + 7 < fn.body_end && tok_is(f, i + 1, "std") &&
                 punct_is(f, i + 2, "::") && tok_is(f, i + 3, "move") &&
                 punct_is(f, i + 4, "(") &&
                 f.tokens[i + 5].kind == Tok::kIdent &&
                 punct_is(f, i + 6, ")") && punct_is(f, i + 7, ";"))
          name_tok = i + 5;
        if (name_tok != SIZE_MAX && tainted.count(f.tokens[name_tok].text))
          report(i, "return of tainted staged data");
      }
    }
  }
}

}  // namespace secmem_lint
