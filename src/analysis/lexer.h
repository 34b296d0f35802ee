// Lexer — the token stream behind tsglint (tools/tsglint.cc).
//
// A real C++ tokenizer, not a pile of regexes: line splices, raw strings,
// nested-looking comments, char literals and string prefixes are handled
// the way the compiler handles them, so rules built on the stream cannot be
// fooled by a forbidden identifier inside a string literal or a comment —
// the failure mode of a regex linter.
//
// Scope: tokens sufficient for project-invariant analysis, not a compiler
// front end. Identifiers and keywords share one kind (rules match text);
// numbers are one opaque kind; only the multi-char punctuators rules need
// (`::`, `->`, `.*`-free) are fused — everything else is single-char
// punctuation. Comments are preserved in a side list because the annotation
// grammar (`tsg:hot`, `tsg:mo(...)`, `NOLINT(tsg-*)`) lives in them.
//
// The analysis layer is deliberately dependency-free (see tools/layers.txt:
// `analysis` sits beside `common` at the bottom of the DAG) so the linter
// binary can never tangle with the runtime it checks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsg {
namespace lint {

enum class TokenKind : std::uint8_t {
  kIdentifier,  // identifiers and keywords alike
  kNumber,      // any pp-number (integer, float, suffixes, separators)
  kString,      // string literal, prefix and quotes included in text
  kChar,        // character literal
  kPunct,       // operators and punctuation; `::` and `->` come fused
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 0;    // 1-based physical line of the first character
  int column = 0;  // 1-based
};

// A comment with its physical position. `text` keeps the delimiters
// (`// ...` or `/* ... */`); block comments may span lines (`line` is where
// they start).
struct Comment {
  std::string text;
  int line = 0;
  int column = 0;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

// Tokenizes a translation unit. Never fails: unterminated constructs lex to
// the end of input (the analyses care about real, compiling code; garbage
// in garbage out).
[[nodiscard]] LexResult lex(std::string_view source);

}  // namespace lint
}  // namespace tsg
