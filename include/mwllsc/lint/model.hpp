// mwllsc-lint model: walks the token stream and reconstructs what the rule
// engine needs to reason about —
//
//   * every std::atomic<...> declaration (member field, global, local or
//     pointer), with its cache-line-padding evidence: alignas(...) on the
//     declaration itself or on the immediately enclosing struct/class.
//     A declaration through a shared-memory policy's alias, Atomic<...>
//     (core/llsc.hpp), counts the same: the protocols are templates over
//     the policy, and its production type is std::atomic;
//   * every atomic access site: load/store/exchange/compare_exchange_*/
//     fetch_* member calls (with the explicit memory_order arguments they
//     pass, if any), std::atomic_thread_fence calls, and operator sugar
//     (++/--/+=/=/...) on names declared atomic in scope;
//   * every raw-atomic escape hatch: volatile, __sync_*/__atomic_*
//     builtins, and inline asm.
//
// This is a scope-aware token scan, not a full C++ parse: it tracks
// namespace/class/enum/block nesting (so member fields are distinguished
// from locals), skips template parameter lists and preprocessor lines, and
// resolves operator sugar by name against declarations whose scope is
// live — members bind inside their class body only, which keeps same-named
// plain fields elsewhere (e.g. a snapshot struct mirroring a counter cell)
// from false-positiving. Path expressions through objects (x.field++) are
// therefore only checked inside the declaring class; the member-call rules
// are name-independent and catch the rest.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/source.hpp"

namespace mwllsc::lint {

struct AccessSite {
  enum class Kind {
    kLoad,
    kStore,
    kExchange,
    kCas,
    kFetchOp,
    kFence,
    kOperator,
  };

  Kind kind = Kind::kLoad;
  std::string method;  ///< "load", "fetch_add", "++", "=", ...
  std::string object;  ///< best-effort receiver text, for messages
  int line_begin = 0;  ///< line of the method / operator token
  int line_end = 0;    ///< line of the closing paren (multi-line calls)
  std::vector<std::string> orders;  ///< explicit orders: "seq_cst", ...
};

struct AtomicDecl {
  std::string name;
  int line = 0;
  bool member = false;   ///< declared at class scope (a shared field)
  bool global = false;   ///< declared at namespace scope
  bool pointer = false;  ///< pointer-to-atomic (R5 does not apply)
  bool padded = false;   ///< alignas on the decl or its enclosing class
  std::size_t name_tok = 0;
  std::size_t live_begin = 0;  ///< token range where operator sugar binds
  std::size_t live_end = 0;    ///< (members: their class body)
};

struct RawUse {
  std::string what;
  int line = 0;
};

struct FileModel {
  SourceFile src;
  std::vector<Token> toks;
  std::vector<AccessSite> sites;
  std::vector<AtomicDecl> decls;
  std::vector<RawUse> raw;
};

namespace detail {

inline AccessSite::Kind method_kind(const std::string& m, bool* known) {
  *known = true;
  if (m == "load") return AccessSite::Kind::kLoad;
  if (m == "store") return AccessSite::Kind::kStore;
  if (m == "exchange") return AccessSite::Kind::kExchange;
  if (m == "compare_exchange_strong" || m == "compare_exchange_weak")
    return AccessSite::Kind::kCas;
  if (m == "fetch_add" || m == "fetch_sub" || m == "fetch_and" ||
      m == "fetch_or" || m == "fetch_xor")
    return AccessSite::Kind::kFetchOp;
  *known = false;
  return AccessSite::Kind::kLoad;
}

/// Skips a balanced <...> starting at toks[i] == "<"; ">>" closes two
/// levels. Returns the index one past the closing ">", or `i` unchanged
/// when the angles never close (treated as not-a-template by callers).
inline std::size_t skip_angles(const std::vector<Token>& toks,
                               std::size_t i) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      return i;  // not a template argument list after all
    }
  }
  return i;
}

inline std::size_t skip_parens(const std::vector<Token>& toks,
                               std::size_t i) {
  if (i >= toks.size() || toks[i].text != "(") return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")" && --depth == 0) return j + 1;
  }
  return toks.size();
}

/// Collects the explicit memory_order arguments of a call whose opening
/// paren is toks[open]. Only depth-1 tokens count, so orders named by a
/// nested call (e.g. a load inside a store's value argument) do not leak
/// into the outer site. Returns the closing-paren line in *line_end.
inline std::vector<std::string> collect_orders(
    const std::vector<Token>& toks, std::size_t open, int* line_end) {
  std::vector<std::string> orders;
  int depth = 0;
  *line_end = toks[open].line;
  for (std::size_t j = open; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.text == "(") {
      ++depth;
      continue;
    }
    if (t.text == ")") {
      if (--depth == 0) {
        *line_end = t.line;
        return orders;
      }
      continue;
    }
    if (depth != 1 || t.kind != Token::Kind::kIdent) continue;
    if (t.text.rfind("memory_order_", 0) == 0) {
      orders.push_back(t.text.substr(13));
    } else if (t.text == "memory_order" && j + 2 < toks.size() &&
               toks[j + 1].text == "::") {
      orders.push_back(toks[j + 2].text);
    }
  }
  return orders;
}

/// Best-effort receiver text for messages: walks back over a member-access
/// chain (idents, ::, ., ->, [idx]) from the token before the dot.
inline std::string receiver_text(const std::vector<Token>& toks,
                                 std::size_t dot) {
  std::string out;
  std::size_t j = dot;
  int parts = 0;
  while (j > 0 && parts < 8) {
    const std::string& t = toks[j - 1].text;
    if (t == "]") {
      // find the matching '['
      int depth = 0;
      std::size_t k = j - 1;
      while (k > 0) {
        if (toks[k].text == "]") ++depth;
        if (toks[k].text == "[" && --depth == 0) break;
        --k;
      }
      out.insert(0, "[..]");
      j = k;
    } else if ((toks[j - 1].kind == Token::Kind::kIdent &&
                t != "return" && t != "if" && t != "while" &&
                t != "else" && t != "do") ||
               t == "." || t == "->" || t == "::") {
      out.insert(0, t);
      j -= 1;
    } else {
      break;
    }
    ++parts;
  }
  return out.size() > 48 ? out.substr(out.size() - 48) : out;
}

}  // namespace detail

inline FileModel build_model(SourceFile src) {
  FileModel m;
  m.src = std::move(src);
  m.toks = tokenize(m.src);
  const std::vector<Token>& toks = m.toks;
  const std::size_t n = toks.size();

  struct Scope {
    enum class Kind { kNamespace, kClass, kEnum, kBlock };
    Kind kind = Kind::kBlock;
    bool padded = false;
    std::size_t open_tok = 0;
  };
  std::vector<Scope> scopes;
  enum class Pending { kNone, kNamespace, kClass, kEnum };
  Pending pending = Pending::kNone;
  bool pending_padded = false;

  auto at_class_scope = [&] {
    return !scopes.empty() && scopes.back().kind == Scope::Kind::kClass;
  };
  auto at_namespace_scope = [&] {
    return scopes.empty() ||
           scopes.back().kind == Scope::Kind::kNamespace;
  };
  auto class_padded = [&] {
    return at_class_scope() && scopes.back().padded;
  };

  // Tries to parse an atomic variable/field declaration whose statement
  // starts at toks[i]; records every declarator. Only records — the main
  // walk keeps scanning the same tokens, so initializers still surface
  // any access sites they contain.
  auto try_decl = [&](std::size_t i) {
    std::size_t j = i;
    bool decl_padded = false;
    for (;;) {
      if (j >= n) return;
      const std::string& t = toks[j].text;
      if (t == "static" || t == "mutable" || t == "constexpr" ||
          t == "inline" || t == "extern" || t == "thread_local" ||
          t == "const") {
        ++j;
        continue;
      }
      if (t == "alignas" && j + 1 < n && toks[j + 1].text == "(") {
        decl_padded = true;
        j = detail::skip_parens(toks, j + 1);
        continue;
      }
      break;
    }
    if (j + 1 < n && toks[j].text == "std" && toks[j + 1].text == "::") {
      j += 2;
    }
    if (j >= n || (toks[j].text != "atomic" && toks[j].text != "Atomic")) {
      return;
    }
    ++j;
    const std::size_t after = detail::skip_angles(toks, j);
    if (after == j) return;  // `atomic` without template args: not a decl
    j = after;

    bool first = true;
    for (;;) {
      bool ptr = false;
      while (j < n && (toks[j].text == "*" || toks[j].text == "&")) {
        ptr = ptr || toks[j].text == "*";
        ++j;
      }
      if (j >= n || toks[j].kind != Token::Kind::kIdent) {
        if (first) return;  // e.g. a cast or template-id in an expression
        break;
      }
      if (j + 1 < n && toks[j + 1].text == "(") {
        return;  // a function returning atomic/atomic*, not a variable
      }
      AtomicDecl d;
      d.name = toks[j].text;
      d.line = toks[j].line;
      d.name_tok = j;
      d.member = at_class_scope();
      d.global = at_namespace_scope();
      d.pointer = ptr;
      d.padded = decl_padded || class_padded();
      d.live_begin =
          d.member && !scopes.empty() ? scopes.back().open_tok : j + 1;
      d.live_end = 0;  // patched when the enclosing scope closes
      m.decls.push_back(d);
      ++j;
      first = false;

      // Skip to `,` (next declarator) or `;` (end) at balanced depth.
      int pd = 0, bd = 0, ad = 0;
      while (j < n) {
        const std::string& t = toks[j].text;
        if (t == "(") ++pd;
        if (t == ")") --pd;
        if (t == "{") ++bd;
        if (t == "}") --bd;
        if (t == "[") ++ad;
        if (t == "]") --ad;
        if (pd == 0 && bd == 0 && ad == 0) {
          if (t == ";") return;
          if (t == ",") {
            ++j;
            break;
          }
        }
        if (bd < 0) return;  // ran out of the enclosing scope: bail
        ++j;
      }
      if (j >= n) return;
    }
  };

  std::string prev_text = ";";  // start of file counts as statement start
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];

    // Template parameter lists may contain `class`/`typename` keywords
    // that must not prime the scope machine.
    if (t.kind == Token::Kind::kIdent && t.text == "template" &&
        i + 1 < n && toks[i + 1].text == "<") {
      const std::size_t after = detail::skip_angles(toks, i + 1);
      if (after != i + 1) {
        i = after - 1;
        prev_text = ">";
        continue;
      }
    }

    if (t.kind == Token::Kind::kIdent) {
      if (t.text == "namespace") {
        pending = Pending::kNamespace;
      } else if (t.text == "enum") {
        pending = Pending::kEnum;
      } else if (t.text == "struct" || t.text == "class" ||
                 t.text == "union") {
        if (pending != Pending::kEnum) {
          pending = Pending::kClass;
          pending_padded = false;
        }
      } else if (t.text == "alignas" && pending == Pending::kClass) {
        pending_padded = true;
      } else if (t.text == "volatile") {
        m.raw.push_back({"volatile", t.line});
      } else if (t.text.rfind("__sync_", 0) == 0 ||
                 t.text.rfind("__atomic_", 0) == 0) {
        m.raw.push_back({t.text, t.line});
      } else if (t.text == "asm" || t.text == "__asm" ||
                 t.text == "__asm__") {
        m.raw.push_back({t.text, t.line});
      } else if ((t.text == "atomic_thread_fence" ||
                  t.text == "atomic_signal_fence") &&
                 i + 1 < n && toks[i + 1].text == "(") {
        AccessSite s;
        s.kind = AccessSite::Kind::kFence;
        s.method = t.text;
        s.line_begin = t.line;
        s.orders = detail::collect_orders(toks, i + 1, &s.line_end);
        m.sites.push_back(std::move(s));
      }
    } else if (t.text == ";") {
      pending = Pending::kNone;  // fwd decl / statement end
    } else if (t.text == "{") {
      Scope sc;
      switch (pending) {
        case Pending::kNamespace:
          sc.kind = Scope::Kind::kNamespace;
          break;
        case Pending::kClass:
          sc.kind = Scope::Kind::kClass;
          sc.padded = pending_padded;
          break;
        case Pending::kEnum:
          sc.kind = Scope::Kind::kEnum;
          break;
        case Pending::kNone:
          sc.kind = Scope::Kind::kBlock;
          break;
      }
      sc.open_tok = i;
      scopes.push_back(sc);
      pending = Pending::kNone;
      pending_padded = false;
    } else if (t.text == "}") {
      if (!scopes.empty()) {
        const std::size_t open = scopes.back().open_tok;
        for (AtomicDecl& d : m.decls) {
          if (d.live_end == 0 && d.live_begin >= open &&
              d.name_tok > open) {
            // Declared inside the scope that just closed (members use
            // the class body itself as their live range).
            if (d.member ? d.live_begin == open : d.name_tok > open) {
              d.live_end = i;
            }
          }
        }
        scopes.pop_back();
      }
    }

    // Member-call access sites: receiver . / -> method ( ...
    if ((t.text == "." || t.text == "->") && i + 2 < n &&
        toks[i + 1].kind == Token::Kind::kIdent &&
        toks[i + 2].text == "(") {
      bool known = false;
      const AccessSite::Kind k = detail::method_kind(toks[i + 1].text,
                                                     &known);
      if (known) {
        AccessSite s;
        s.kind = k;
        s.method = toks[i + 1].text;
        s.object = detail::receiver_text(toks, i);
        s.line_begin = toks[i + 1].line;
        s.orders = detail::collect_orders(toks, i + 2, &s.line_end);
        m.sites.push_back(std::move(s));
      }
    }

    // Statement-start declaration scan (class, namespace or block scope).
    const bool stmt_start = prev_text == ";" || prev_text == "{" ||
                            prev_text == "}" || prev_text == ":";
    if (stmt_start && t.kind == Token::Kind::kIdent &&
        (t.text == "std" || t.text == "atomic" || t.text == "Atomic" ||
         t.text == "static" ||
         t.text == "mutable" || t.text == "constexpr" ||
         t.text == "inline" || t.text == "extern" ||
         t.text == "thread_local" || t.text == "const" ||
         t.text == "alignas")) {
      try_decl(i);
    }

    prev_text = t.text;
  }
  for (AtomicDecl& d : m.decls) {
    if (d.live_end == 0) d.live_end = n;
  }

  // Operator-sugar pass: implicit seq_cst accesses spelled through
  // operators on names declared atomic in a live scope.
  for (const AtomicDecl& d : m.decls) {
    for (std::size_t k = d.live_begin; k < d.live_end && k < n; ++k) {
      if (k == d.name_tok || toks[k].kind != Token::Kind::kIdent ||
          toks[k].text != d.name) {
        continue;
      }
      const std::string prev = k > 0 ? toks[k - 1].text : ";";
      std::size_t after = k + 1;
      bool element = false;  // name[...] — an element of an atomic array
      if (after < n && toks[after].text == "[") {
        int depth = 0;
        while (after < n) {
          if (toks[after].text == "[") ++depth;
          if (toks[after].text == "]" && --depth == 0) {
            ++after;
            break;
          }
          ++after;
        }
        element = true;
      }
      const std::string next = after < n ? toks[after].text : ";";
      if (d.pointer && !element) continue;  // pointer ops aren't atomic

      const bool inc_dec_prev = prev == "++" || prev == "--";
      const bool compound_next = next == "++" || next == "--" ||
                                 next == "+=" || next == "-=" ||
                                 next == "&=" || next == "|=" ||
                                 next == "^=";
      // `name = v` is an implicit seq_cst store — but only flag uses that
      // are unambiguously assignments, not fresh (shadowing) declarations:
      // a type name directly before the identifier means a declaration.
      const bool assign_next =
          next == "=" &&
          (prev == ";" || prev == "{" || prev == "}" || prev == ")" ||
           prev == "." || prev == "->");
      // `x = name` / `return name` read through the implicit conversion —
      // unless a member access follows (then the method call is the site).
      const bool implicit_read =
          !element && (prev == "=" || prev == "return") && next != "." &&
          next != "->" && next != "(" && next != "::" && next != "[";

      if (inc_dec_prev || compound_next || assign_next || implicit_read) {
        AccessSite s;
        s.kind = AccessSite::Kind::kOperator;
        s.method = inc_dec_prev ? prev
                   : compound_next || assign_next
                       ? next
                       : std::string("implicit-load");
        s.object = d.name;
        s.line_begin = toks[k].line;
        s.line_end = toks[k].line;
        m.sites.push_back(std::move(s));
      }
    }
  }

  return m;
}

}  // namespace mwllsc::lint
