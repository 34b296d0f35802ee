// tsglint — the repo-native static analyzer (see src/analysis/).
//
// Runs the full rule catalogue (layering, lock-order, hot-path, atomics,
// and the four project-invariant rules) over the given files or
// directories and exits non-zero on any finding. Wired into tier-1 as the
// `TsgLint` ctest.
//
// Usage:
//   tsglint [--root=DIR] [--json=FILE] [--layers=FILE] [--lock-order=FILE]
//           [paths...]
//
// Paths are repo-relative files or directories; with none given the
// default scan set is src tools tests bench. `--json=-` writes the machine
// readable report to stdout instead of a file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"

namespace {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void writeJson(std::ostream& os,
               const std::vector<tsg::lint::Diagnostic>& diags,
               std::size_t file_count) {
  os << "{\n  \"files\": " << file_count << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << jsonEscape(d.file) << "\", \"line\": "
       << d.line << ", \"rule\": \"tsg-" << jsonEscape(d.rule)
       << "\", \"message\": \"" << jsonEscape(d.message) << "\"}";
  }
  os << (diags.empty() ? "]" : "\n  ]") << ",\n  \"count\": " << diags.size()
     << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  tsg::lint::AnalyzerOptions options;
  std::string json_path;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return std::string(arg.substr(flag.size()));
    };
    if (arg.rfind("--root=", 0) == 0) {
      options.root = value("--root=");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value("--json=");
    } else if (arg.rfind("--layers=", 0) == 0) {
      options.layers_path = value("--layers=");
    } else if (arg.rfind("--lock-order=", 0) == 0) {
      options.lock_order_path = value("--lock-order=");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: tsglint [--root=DIR] [--json=FILE|-] "
                   "[--layers=FILE] [--lock-order=FILE] [paths...]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "tsglint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (options.root.empty()) {
    // Move-assign: GCC 12 reports a false -Wrestrict on
    // operator=(const char*) at -O2.
    options.root = std::string(".");
  }
  if (paths.empty()) {
    paths = {"src", "tools", "tests", "bench"};
  }

  const tsg::lint::Analyzer analyzer(options);
  const std::vector<std::string> files = analyzer.collectFiles(paths);
  const std::vector<tsg::lint::Diagnostic> diags = analyzer.run(files);

  for (const auto& d : diags) {
    std::cout << d.file << ":" << d.line << ": [tsg-" << d.rule << "] "
              << d.message << "\n";
  }
  if (!json_path.empty()) {
    if (json_path == "-") {
      writeJson(std::cout, diags, files.size());
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "tsglint: cannot write " << json_path << "\n";
        return 2;
      }
      writeJson(out, diags, files.size());
    }
  }
  if (!diags.empty()) {
    std::cout << "\ntsglint: " << diags.size() << " violation(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "tsglint: OK (" << files.size() << " files clean)\n";
  return 0;
}
