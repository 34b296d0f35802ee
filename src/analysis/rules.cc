// Per-file passes: the four project-invariant rules on the token stream
// (immune to comment/string spoofing, and call sites may span lines), plus
// the two annotation-driven concurrency rules (tsg-hot-path, tsg-atomics).
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"

namespace tsg {
namespace lint {

namespace {

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool isIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool isPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

// Index of the matching `)` for the `(` at `open`, or tokens.size().
std::size_t matchParen(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (isPunct(tokens[i], "(")) {
      ++depth;
    } else if (isPunct(tokens[i], ")")) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return tokens.size();
}

// True when token i is a member access: preceded by `.` or `->`.
bool isMemberAccess(const std::vector<Token>& tokens, std::size_t i) {
  return i > 0 && (isPunct(tokens[i - 1], ".") || isPunct(tokens[i - 1], "->"));
}

// True when token i is qualified (preceded by `::`).
bool isQualified(const std::vector<Token>& tokens, std::size_t i) {
  return i > 0 && isPunct(tokens[i - 1], "::");
}

void emit(const SourceFile& f, int line, const char* rule,
          std::string message, std::vector<Diagnostic>& out) {
  out.push_back(Diagnostic{f.path, line, rule, std::move(message)});
}

}  // namespace

// ---------------------------------------------------------------- trace ---

void checkTraceLiteral(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (f.path == "src/common/trace.h" || f.path == "src/common/trace.cc") {
    return;
  }
  const auto& tokens = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) {
      continue;
    }
    const bool span_like =
        (t.text == "TraceSpan" &&
         (isPunct(tokens[i + 1], "(") || isPunct(tokens[i + 1], "{")));
    const bool call_like =
        (t.text == "traceCounter" &&
         isPunct(tokens[i + 1], "("));
    if (span_like || call_like) {
      if (i + 2 >= tokens.size() ||
          (tokens[i + 2].kind != TokenKind::kString &&
           !isIdent(tokens[i + 2], "nullptr"))) {
        emit(f, t.line, "trace-literal",
             "trace category/name must be a string literal (TraceLiteral), "
             "not a computed value",
             out);
      }
    }
    if (t.text == "TraceLiteral") {
      // Both the temporary form `TraceLiteral{x}` and the declaration form
      // `TraceLiteral lit{x}` construct one; skip the variable name.
      std::size_t open = i + 1;
      if (open < tokens.size() &&
          tokens[open].kind == TokenKind::kIdentifier) {
        ++open;
      }
      if (open + 1 < tokens.size() &&
          (isPunct(tokens[open], "(") || isPunct(tokens[open], "{")) &&
          tokens[open + 1].kind == TokenKind::kIdentifier &&
          tokens[open + 1].text != "nullptr") {
        emit(f, t.line, "trace-literal",
             "TraceLiteral must be constructed from a string literal or "
             "nullptr",
             out);
      }
    }
  }
}

// --------------------------------------------------------------- thread ---

void checkNakedThread(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (startsWith(f.path, "src/runtime/") || startsWith(f.path, "tests/") ||
      startsWith(f.path, "bench/")) {
    return;
  }
  const auto& tokens = f.lex.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (isIdent(tokens[i], "std") && isPunct(tokens[i + 1], "::") &&
        (isIdent(tokens[i + 2], "thread") ||
         isIdent(tokens[i + 2], "jthread"))) {
      emit(f, tokens[i].line, "naked-thread",
           "spawn workers via runtime/Cluster (wave phases), not "
           "std::thread",
           out);
    }
  }
}

// ------------------------------------------------------------------ rng ---

void checkUnseededRng(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (startsWith(f.path, "src/common/rng.")) {
    return;
  }
  static const std::set<std::string> kBannedCalls = {"rand", "srand",
                                                     "drand48", "srand48"};
  static const std::set<std::string> kBannedTypes = {
      "random_device", "mt19937", "mt19937_64", "default_random_engine"};
  const auto& tokens = f.lex.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) {
      continue;
    }
    if (kBannedCalls.count(t.text) != 0 && i + 1 < tokens.size() &&
        isPunct(tokens[i + 1], "(") && !isQualified(tokens, i) &&
        !isMemberAccess(tokens, i)) {
      emit(f, t.line, "unseeded-rng",
           "'" + t.text +
               "' bypasses common/rng; all randomness must be seeded "
               "through tsg::Rng for reproducibility",
           out);
    }
    if (kBannedTypes.count(t.text) != 0 && i >= 2 &&
        isIdent(tokens[i - 2], "std") && isPunct(tokens[i - 1], "::")) {
      emit(f, t.line, "unseeded-rng",
           "'std::" + t.text +
               "' bypasses common/rng; all randomness must be seeded "
               "through tsg::Rng for reproducibility",
           out);
    }
  }
}

// --------------------------------------------------------------- metric ---

namespace {

// <subsystem>.<snake_case>, optionally more dotted segments; first segment
// starts with a letter, later ones with a letter or digit.
bool metricNameOk(std::string_view name) {
  std::size_t begin = 0;
  int segments = 0;
  while (begin <= name.size()) {
    std::size_t end = name.find('.', begin);
    if (end == std::string_view::npos) {
      end = name.size();
    }
    const std::string_view seg = name.substr(begin, end - begin);
    if (seg.empty()) {
      return false;
    }
    const char first = seg.front();
    const bool first_ok =
        segments == 0 ? (first >= 'a' && first <= 'z')
                      : ((first >= 'a' && first <= 'z') ||
                         (first >= '0' && first <= '9'));
    if (!first_ok) {
      return false;
    }
    for (const char c : seg.substr(1)) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        return false;
      }
    }
    ++segments;
    if (end == name.size()) {
      break;
    }
    begin = end + 1;
  }
  return segments >= 2;
}

}  // namespace

void checkMetricName(const SourceFile& f, std::vector<Diagnostic>& out) {
  if (startsWith(f.path, "src/common/metrics.") ||
      startsWith(f.path, "tests/")) {
    return;
  }
  const auto& tokens = f.lex.tokens;
  for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier ||
        (t.text != "counter" && t.text != "gauge" && t.text != "histogram")) {
      continue;
    }
    if (!isMemberAccess(tokens, i) || !isPunct(tokens[i + 1], "(")) {
      continue;
    }
    if (i + 2 >= tokens.size()) {
      continue;
    }
    const Token& arg = tokens[i + 2];
    if (isPunct(arg, ")")) {
      continue;  // zero-arg overload, not a name lookup
    }
    if (arg.kind != TokenKind::kString) {
      emit(f, t.line, "metric-name",
           t.text +
               "() name must be a string literal, not a computed value "
               "(Prometheus series names must be stable)",
           out);
      continue;
    }
    // Strip the quotes (plain literals only reach here; prefixes would be
    // part of the text and fail the name check anyway).
    std::string_view name = arg.text;
    if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
      name = name.substr(1, name.size() - 2);
    }
    if (!metricNameOk(name)) {
      emit(f, t.line, "metric-name",
           "metric name \"" + std::string(name) +
               "\" must follow <subsystem>.<snake_case> (e.g. "
               "\"bus.inflight_messages\")",
           out);
    }
  }
}

// ------------------------------------------------------------- hot-path ---

namespace {

// Does the balanced paren group opening at `open` mention any identifier in
// `needles` at any depth?
bool parensContain(const std::vector<Token>& tokens, std::size_t open,
                   const std::set<std::string>& needles) {
  const std::size_t close = matchParen(tokens, open);
  for (std::size_t i = open + 1; i < close; ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier &&
        needles.count(tokens[i].text) != 0) {
      return true;
    }
  }
  return false;
}

const std::set<std::string>& nonBlockingLockTags() {
  static const std::set<std::string> kTags = {"try_to_lock", "defer_lock",
                                              "adopt_lock"};
  return kTags;
}

}  // namespace

void checkHotPath(const SourceFile& f, std::vector<Diagnostic>& out) {
  const auto& tokens = f.lex.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!f.isHot(i)) {
      continue;
    }
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) {
      continue;
    }
    const int line = t.line;

    if (t.text == "new" && !isMemberAccess(tokens, i)) {
      emit(f, line, "hot-path", "allocation (new) in a tsg:hot region", out);
      continue;
    }
    if ((t.text == "malloc" || t.text == "calloc" || t.text == "realloc") &&
        i + 1 < tokens.size() && isPunct(tokens[i + 1], "(")) {
      emit(f, line, "hot-path",
           "allocation (" + t.text + ") in a tsg:hot region", out);
      continue;
    }
    if (t.text == "string" && isQualified(tokens, i) && i >= 2 &&
        isIdent(tokens[i - 2], "std") &&
        !(i + 1 < tokens.size() && (isPunct(tokens[i + 1], "&") ||
                                    isPunct(tokens[i + 1], "*") ||
                                    isPunct(tokens[i + 1], "::")))) {
      emit(f, line, "hot-path",
           "std::string construction in a tsg:hot region (allocates)", out);
      continue;
    }
    if (t.text == "throw") {
      emit(f, line, "hot-path", "throw in a tsg:hot region", out);
      continue;
    }
    if (t.text == "lock_guard" || t.text == "scoped_lock") {
      emit(f, line, "hot-path",
           "blocking " + t.text + " in a tsg:hot region", out);
      continue;
    }
    if ((t.text == "unique_lock" || t.text == "shared_lock") &&
        !isMemberAccess(tokens, i)) {
      // Find the constructor argument list; try_to_lock/defer_lock forms
      // are non-blocking and allowed.
      std::size_t j = i + 1;
      if (j < tokens.size() && isPunct(tokens[j], "<")) {
        int angle = 0;
        for (; j < tokens.size(); ++j) {
          if (isPunct(tokens[j], "<")) {
            ++angle;
          } else if (isPunct(tokens[j], ">") && --angle == 0) {
            ++j;
            break;
          }
        }
      }
      if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
        ++j;  // variable name
      }
      if (j < tokens.size() &&
          (isPunct(tokens[j], "(") || isPunct(tokens[j], "{")) &&
          !parensContain(tokens, j, nonBlockingLockTags())) {
        emit(f, line, "hot-path",
             "blocking " + t.text +
                 " in a tsg:hot region (use std::try_to_lock)",
             out);
      }
      continue;
    }
    if (t.text == "lock" && isMemberAccess(tokens, i) &&
        i + 1 < tokens.size() && isPunct(tokens[i + 1], "(")) {
      emit(f, line, "hot-path", "blocking mutex lock() in a tsg:hot region",
           out);
      continue;
    }
    if ((t.text == "wait" || t.text == "wait_for" || t.text == "wait_until") &&
        isMemberAccess(tokens, i) && i + 1 < tokens.size() &&
        isPunct(tokens[i + 1], "(")) {
      emit(f, line, "hot-path", "blocking " + t.text + "() in a tsg:hot region",
           out);
      continue;
    }
    if (t.text == "sleep_for" || t.text == "sleep_until" ||
        t.text == "usleep" || t.text == "nanosleep") {
      emit(f, line, "hot-path", "blocking sleep in a tsg:hot region", out);
      continue;
    }
  }
}

// -------------------------------------------------------------- atomics ---

namespace {

// Lines "covered" by a tsg:mo(<why>) tag: the tag's comment block (a run of
// comments on contiguous lines) plus the first line after it, so both
//     x.load(std::memory_order_relaxed);  // tsg:mo(why)
// and
//     // tsg:mo(why spanning
//     // two comment lines)
//     x.load(std::memory_order_relaxed);
// are tagged.
std::set<int> moCoveredLines(const SourceFile& f) {
  std::set<int> covered;
  int active_end = -1;  // last line still part of a tagged comment block
  for (const Comment& c : f.lex.comments) {
    int end = c.line;
    for (const char ch : c.text) {
      if (ch == '\n') {
        ++end;
      }
    }
    const bool tagged = c.text.find("tsg:mo(") != std::string::npos;
    if (tagged || c.line <= active_end + 1) {
      for (int l = c.line; l <= end + 1; ++l) {
        covered.insert(l);
      }
      if (end > active_end || tagged) {
        active_end = end;
      }
    }
  }
  return covered;
}

bool isExplicitOrderName(const std::string& text) {
  return text == "memory_order_relaxed" || text == "memory_order_acquire" ||
         text == "memory_order_release" || text == "memory_order_acq_rel" ||
         text == "memory_order_consume";
}

const std::set<std::string>& atomicMemberOps() {
  static const std::set<std::string> kOps = {
      "load",          "store",          "exchange",
      "fetch_add",     "fetch_sub",      "fetch_and",
      "fetch_or",      "fetch_xor",      "compare_exchange_weak",
      "compare_exchange_strong"};
  return kOps;
}

}  // namespace

void checkAtomics(const SourceFile& f, std::vector<Diagnostic>& out) {
  const auto& tokens = f.lex.tokens;
  const std::set<int> covered = moCoveredLines(f);

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kIdentifier) {
      continue;
    }

    // Weaker-than-seq_cst order: must carry a tsg:mo(<why>) justification.
    bool weak_order = isExplicitOrderName(t.text);
    // `std::memory_order::relaxed` enum-class spelling.
    if (!weak_order && isIdent(t, "memory_order") && i + 2 < tokens.size() &&
        isPunct(tokens[i + 1], "::") &&
        isExplicitOrderName("memory_order_" + tokens[i + 2].text)) {
      weak_order = true;
    }
    if (weak_order && covered.count(t.line) == 0) {
      emit(f, t.line, "atomics",
           "relaxed/acquire/release memory_order needs a '// tsg:mo(<why>)' "
           "justification on this or the preceding comment line",
           out);
      continue;
    }

    // Defaulted (seq_cst) atomic ops are too strong for hot regions.
    if (f.isHot(i) && atomicMemberOps().count(t.text) != 0 &&
        isMemberAccess(tokens, i) && i + 1 < tokens.size() &&
        isPunct(tokens[i + 1], "(")) {
      const std::size_t close = matchParen(tokens, i + 1);
      bool has_order = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (tokens[j].kind == TokenKind::kIdentifier &&
            startsWith(tokens[j].text, "memory_order")) {
          has_order = true;
          break;
        }
      }
      if (!has_order) {
        emit(f, t.line, "atomics",
             "atomic " + t.text +
                 "() defaults to seq_cst inside a tsg:hot region; pass an "
                 "explicit memory_order",
             out);
      }
    }
  }
}

}  // namespace lint
}  // namespace tsg
