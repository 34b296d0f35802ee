// Analyzer — tsglint's pass framework over lexed translation units.
//
// Rule catalogue (ids are used in diagnostics and NOLINT suppressions):
//
//   tsg-layering       #include edges must follow the module DAG declared
//                      in tools/layers.txt; the declared graph itself must
//                      be acyclic. NOT suppressible — a back-edge is fixed,
//                      never waived.
//   tsg-lock-order     the global lock graph (per-function mutex-acquire
//                      nesting plus an approximate intra-module call graph,
//                      seeded from tools/lock_order.txt) must be acyclic.
//                      NOT suppressible.
//   tsg-hot-path       a `// tsg:hot` region (the next braced block) must
//                      not allocate, construct std::string, take a blocking
//                      mutex/condvar, throw, or enter a blocking syscall.
//   tsg-atomics        every relaxed/acquire/release/acq_rel memory_order
//                      use carries a `// tsg:mo(<why>)` tag on its own or
//                      the previous line; atomic ops defaulting to seq_cst
//                      inside a tsg:hot region are flagged.
//   tsg-trace-literal  trace call sites pass literals (see common/trace.h).
//   tsg-naked-thread   std::thread/jthread only in the scheduling layer.
//   tsg-unseeded-rng   all randomness flows through common/rng.
//   tsg-metric-name    metric names are <subsystem>.<snake_case> literals.
//
// A `NOLINT(tsg-<rule>)` comment on the diagnosed line suppresses the
// line-anchored rules. Files
// under a `lint_fixtures` directory are skipped in directory scans (they
// are known-bad on purpose) but lint normally when named explicitly.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.h"

namespace tsg {
namespace lint {

struct Diagnostic {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;
  std::string rule;  // without the "tsg-" prefix
  std::string message;
};

// One lexed file plus the derived annotation state rules share.
struct SourceFile {
  std::string path;  // repo-relative, '/'-separated
  LexResult lex;
  // NOLINT(tsg-*) suppressions: line -> suppressed rule names.
  std::map<int, std::set<std::string>> suppressions;
  // Half-open token ranges [begin, end) marked hot by `// tsg:hot`.
  std::vector<std::pair<std::size_t, std::size_t>> hot_regions;

  // First path segment ("src" files report their second: src/runtime/x.cc
  // -> "runtime"; tools/x.cc -> "tools").
  [[nodiscard]] std::string module() const;
  [[nodiscard]] bool isHot(std::size_t token_index) const;
};

struct AnalyzerOptions {
  std::string root;              // absolute repo root
  std::string layers_path;       // default <root>/tools/layers.txt
  std::string lock_order_path;   // default <root>/tools/lock_order.txt
};

class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options);

  // Lints the given repo-relative files (plus the cross-file layering and
  // lock-order passes) and returns surviving diagnostics sorted by
  // (file, line, rule). IO errors surface as rule "io" diagnostics.
  [[nodiscard]] std::vector<Diagnostic> run(
      const std::vector<std::string>& files) const;

  // Expands repo-relative files/directories into the lint file set
  // (.cc/.h, sorted; `lint_fixtures` directories skipped).
  [[nodiscard]] std::vector<std::string> collectFiles(
      const std::vector<std::string>& paths) const;

 private:
  AnalyzerOptions options_;
};

// Parses a lexed file into shared annotation state (suppressions, hot
// regions). Exposed for tests.
[[nodiscard]] SourceFile buildSourceFile(std::string path, LexResult lex);

// Individual passes (exposed for fixture tests). Each appends diagnostics.
void checkTraceLiteral(const SourceFile& f, std::vector<Diagnostic>& out);
void checkNakedThread(const SourceFile& f, std::vector<Diagnostic>& out);
void checkUnseededRng(const SourceFile& f, std::vector<Diagnostic>& out);
void checkMetricName(const SourceFile& f, std::vector<Diagnostic>& out);
void checkHotPath(const SourceFile& f, std::vector<Diagnostic>& out);
void checkAtomics(const SourceFile& f, std::vector<Diagnostic>& out);
void checkLayering(const std::vector<SourceFile>& files,
                   const std::string& layers_text,
                   std::vector<Diagnostic>& out);
void checkLockOrder(const std::vector<SourceFile>& files,
                    const std::string& seed_text,
                    std::vector<Diagnostic>& out);

}  // namespace lint
}  // namespace tsg
