// tsg-layering: the module DAG declared in tools/layers.txt is enforced
// against the actual #include graph, and the declaration itself must be
// acyclic. Not suppressible — a back-edge means the call moves to the
// layer that may make it, not that the rule is waived.
//
// Declaration grammar (one module per line, '#' comments):
//   <module>: <dep> <dep> ...     may include only itself and <dep>s
//   <module>: *                   may include anything (tools/tests/bench)
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"

namespace tsg {
namespace lint {

namespace {

struct LayerDecl {
  std::set<std::string> deps;
  bool any = false;  // declared as '*'
};

std::map<std::string, LayerDecl> parseLayers(const std::string& text) {
  std::map<std::string, LayerDecl> layers;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, colon);
    name.erase(std::remove_if(name.begin(), name.end(),
                              [](char c) { return c == ' ' || c == '\t'; }),
               name.end());
    if (name.empty()) {
      continue;
    }
    LayerDecl& decl = layers[name];
    std::istringstream deps(line.substr(colon + 1));
    std::string dep;
    while (deps >> dep) {
      if (dep == "*") {
        decl.any = true;
      } else {
        decl.deps.insert(dep);
      }
    }
  }
  return layers;
}

// First path segment of a quoted include target ("" when it has none, i.e.
// a same-directory include).
std::string includeModule(std::string_view target) {
  const std::size_t slash = target.find('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(target.substr(0, slash));
}

// Reports any cycle in the declared graph itself (colored DFS).
void checkDeclaredAcyclic(const std::map<std::string, LayerDecl>& layers,
                          std::vector<Diagnostic>& out) {
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  // Recursive lambda via explicit stack-free Y-combinator style.
  const std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    const auto it = layers.find(node);
    if (it != layers.end()) {
      for (const std::string& dep : it->second.deps) {
        if (layers.count(dep) == 0) {
          continue;
        }
        if (color[dep] == 1) {
          std::string cycle = dep;
          for (auto rit = stack.rbegin(); rit != stack.rend(); ++rit) {
            cycle += " -> " + *rit;
            if (*rit == dep) {
              break;
            }
          }
          out.push_back(Diagnostic{
              "tools/layers.txt", 0, "layering",
              "declared module graph has a cycle: " + cycle});
          return false;
        }
        if (color[dep] == 0 && !visit(dep)) {
          return false;
        }
      }
    }
    stack.pop_back();
    color[node] = 2;
    return true;
  };
  for (const auto& [name, decl] : layers) {
    (void)decl;
    if (color[name] == 0 && !visit(name)) {
      return;  // one cycle report is enough; fixing it re-runs the check
    }
  }
}

}  // namespace

void checkLayering(const std::vector<SourceFile>& files,
                   const std::string& layers_text,
                   std::vector<Diagnostic>& out) {
  const std::map<std::string, LayerDecl> layers = parseLayers(layers_text);
  if (layers.empty()) {
    out.push_back(Diagnostic{"tools/layers.txt", 0, "layering",
                             "no module declarations found"});
    return;
  }
  checkDeclaredAcyclic(layers, out);

  for (const SourceFile& f : files) {
    const std::string mod = f.module();
    const auto decl_it = layers.find(mod);
    if (decl_it == layers.end()) {
      out.push_back(Diagnostic{
          f.path, 1, "layering",
          "module '" + mod + "' is not declared in tools/layers.txt"});
      continue;
    }
    const LayerDecl& decl = decl_it->second;
    if (decl.any) {
      continue;
    }

    const auto& tokens = f.lex.tokens;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!(tokens[i].kind == TokenKind::kPunct && tokens[i].text == "#" &&
            tokens[i + 1].kind == TokenKind::kIdentifier &&
            tokens[i + 1].text == "include" &&
            tokens[i + 2].kind == TokenKind::kString)) {
        continue;
      }
      std::string_view target = tokens[i + 2].text;
      if (target.size() >= 2) {
        target = target.substr(1, target.size() - 2);  // strip quotes
      }
      const std::string dep = includeModule(target);
      if (dep.empty() || dep == mod) {
        continue;  // same-directory or same-module include
      }
      if (layers.count(dep) == 0) {
        continue;  // not one of ours (third-party quoted include)
      }
      if (decl.deps.count(dep) == 0) {
        out.push_back(Diagnostic{
            f.path, tokens[i].line, "layering",
            "module '" + mod + "' must not include '" + dep +
                "' (not a declared dependency in tools/layers.txt)"});
      }
    }
  }
}

}  // namespace lint
}  // namespace tsg
