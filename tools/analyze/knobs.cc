#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"
#include "tools/analyze/source_util.h"
#include "tools/analyze/tokenize.h"

// Env-knob registry pass over src/core/knobs.def. core/knobs is the only
// module that reads the environment: every registry row compiles into an
// accessor core::knobs::<Accessor>() that parses strictly, so the table this
// pass checks is the parser and strictness itself needs no checking here.
// What is left:
//   raw-getenv         a getenv call outside src/core/knobs.cc
//   raw-parse          a C / std::sto* number parser (strtoull, atoi, stod,
//                      ...) outside src/core/knobs.cc and the JSON reader;
//                      core::ParseUnsigned / ParseReal are the strict ones
//   unregistered-knob  a "WHITENREC_X" literal passed to getenv / setenv /
//                      unsetenv, or named in README.md, with no registry row
//   dead-knob          a WR_KNOB row whose accessor `knobs::<Accessor>` is
//                      referenced nowhere (WR_BUILD_OPTION rows are CMake
//                      options and exempt)
//   undocumented-knob  a row README.md does not mention

namespace whitenrec {
namespace analyze {
namespace {

const char kDefPath[] = "src/core/knobs.def";
const char kKnobsModule[] = "src/core/knobs.cc";
const char kJsonModule[] = "src/core/json.cc";

const std::set<std::string>& EnvCalls() {
  static const std::set<std::string> kCalls = {"getenv", "secure_getenv",
                                                "setenv", "unsetenv"};
  return kCalls;
}

// Number parsers that skip whitespace, accept signs, saturate or wrap.
const std::set<std::string>& RawParsers() {
  static const std::set<std::string> kParsers = {
      "atof",   "atoi",   "atol",    "atoll",   "stod",    "stof",  "stoi",
      "stol",   "stold",  "stoll",   "stoul",   "stoull",  "strtod",
      "strtof", "strtol", "strtold", "strtoll", "strtoul", "strtoull"};
  return kParsers;
}

bool IsKnobName(const std::string& value) {
  static const std::regex kName(R"(^WHITENREC_[A-Z0-9_]+$)");
  return std::regex_match(value, kName);
}

}  // namespace

std::vector<KnobDecl> ParseKnobsDef(const std::string& text,
                                    const std::string& def_path,
                                    std::vector<Finding>* findings) {
  static const std::regex kKnob(
      R"re(WR_KNOB\((\w+), (\w+), (\w+), [\w.]+, [\w.]+, )re"
      R"re("[^"]*", "([^"]*)"\))re");
  static const std::regex kOption(R"(WR_BUILD_OPTION\((\w+)\))");
  static const std::set<std::string> kTypes = {"size", "u64", "double",
                                               "enum", "string"};
  std::vector<KnobDecl> decls;
  const std::vector<std::string> lines = SplitLines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i].substr(0, lines[i].find("//"));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty()) continue;  // blank or comment-only
    KnobDecl decl;
    decl.line = i + 1;
    std::smatch m;
    std::string error;
    if (std::regex_match(line, m, kKnob)) {
      decl.name = m[1];
      decl.accessor = m[2];
      decl.type = m[3];
      decl.owner = m[4];
    } else if (std::regex_match(line, m, kOption)) {
      decl.name = m[1];
      decl.type = "cmake";
    } else {
      error = "expected one WR_KNOB(name, Accessor, type, lo, hi, "
              "\"choices\", \"owner\") or WR_BUILD_OPTION(name) per line";
    }
    if (error.empty() && !IsKnobName(decl.name)) {
      error = "knob name must match WHITENREC_[A-Z0-9_]+";
    } else if (error.empty() && decl.type != "cmake" &&
               !kTypes.count(decl.type)) {
      error = "knob '" + decl.name + "' needs type size|u64|double|enum|string";
    }
    if (!error.empty()) {
      if (findings != nullptr) {
        ReportFinding(lines, def_path, i + 1, "knobs", "knob-registry-syntax",
                      "knobs.def: " + error, findings);
      }
      continue;
    }
    decls.push_back(decl);
  }
  return decls;
}

std::vector<Finding> CheckKnobs(const SourceTree& tree,
                                const TreeInputs& inputs) {
  std::vector<Finding> findings;
  const std::vector<KnobDecl> decls =
      ParseKnobsDef(inputs.knobs_def, kDefPath, &findings);
  std::map<std::string, const KnobDecl*> registry;
  const std::vector<std::string> def_lines = SplitLines(inputs.knobs_def);
  for (const KnobDecl& decl : decls) {
    if (registry.count(decl.name)) {
      ReportFinding(def_lines, kDefPath, decl.line, "knobs",
                    "knob-registry-syntax",
                    "duplicate registry entry for " + decl.name, &findings);
      continue;
    }
    registry[decl.name] = &decl;
  }

  // Pass over the tree: raw getenv calls, unregistered knob names, and the
  // accessors each file references.
  std::set<std::string> accessors_used;
  for (const SourceFile& file : tree.files) {
    const std::vector<std::string> raw = SplitLines(file.contents);
    std::vector<Token> tokens;
    for (const Token& t : Tokenize(file.contents)) {
      if (t.kind != TokKind::kComment) tokens.push_back(t);
    }
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      const bool call = i + 1 < tokens.size() && tokens[i + 1].text == "(";
      if (t.kind == TokKind::kIdent && call &&
          (t.text == "getenv" || t.text == "secure_getenv") &&
          file.path != kKnobsModule) {
        ReportFinding(raw, file.path, t.line, "knobs", "raw-getenv",
                      t.text + " outside " + kKnobsModule +
                          "; read WHITENREC_* knobs through their "
                          "core::knobs accessor (add a row to " + kDefPath +
                          ")",
                      &findings);
      }
      if (t.kind == TokKind::kIdent && call && RawParsers().count(t.text) &&
          file.path != kKnobsModule && file.path != kJsonModule) {
        ReportFinding(raw, file.path, t.line, "knobs", "raw-parse",
                      t.text + " outside " + kKnobsModule +
                          "; parse numbers with core::ParseUnsigned / "
                          "core::ParseReal (core/knobs.h)",
                      &findings);
      }
      if (t.kind == TokKind::kIdent && i >= 2 && tokens[i - 1].text == "::" &&
          tokens[i - 2].text == "knobs") {
        accessors_used.insert(t.text);
      }
      // `getenv|setenv|unsetenv ( "WHITENREC_X"`: an environment access by
      // literal name. Names in messages or comparisons never sit there.
      if (t.kind == TokKind::kString && i >= 2 &&
          tokens[i - 1].text == "(" && EnvCalls().count(tokens[i - 2].text)) {
        const std::string name = StringValue(t);
        if (IsKnobName(name) && !registry.count(name)) {
          ReportFinding(raw, file.path, t.line, "knobs", "unregistered-knob",
                        name + " is named here but not declared in " +
                            kDefPath + "; add a WR_KNOB row for it",
                        &findings);
        }
      }
    }
  }

  // Registry-side checks: dead entries and documentation drift, anchored at
  // the registry line so the fix is one edit away.
  static const std::regex kWord(R"([A-Z0-9_]+)");
  for (const KnobDecl& decl : decls) {
    if (registry[decl.name] != &decl) continue;  // duplicate, reported
    if (decl.type != "cmake" && !accessors_used.count(decl.accessor)) {
      ReportFinding(def_lines, kDefPath, decl.line, "knobs", "dead-knob",
                    decl.name + "'s accessor knobs::" + decl.accessor +
                        " is referenced nowhere in src/ bench/ tests/ "
                        "examples/; delete the row (and its README line) or "
                        "wire the knob up",
                    &findings);
    }
    bool documented = false;
    for (auto it = std::sregex_iterator(inputs.readme.begin(),
                                        inputs.readme.end(), kWord);
         it != std::sregex_iterator(); ++it) {
      if (it->str() == decl.name) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      ReportFinding(def_lines, kDefPath, decl.line, "knobs",
                    "undocumented-knob",
                    decl.name + " is registered but not documented in "
                        "README.md; add it to the knob tables",
                    &findings);
    }
  }

  // README-side check: every WHITENREC_* the README documents must exist in
  // the registry (otherwise the docs describe a knob nothing reads). Header
  // guards and table prose are filtered by the same exact-name rule.
  static const std::regex kDocKnob(R"(WHITENREC_[A-Z0-9_]+)");
  const std::vector<std::string> readme_lines = SplitLines(inputs.readme);
  std::set<std::string> reported_doc;
  for (std::size_t i = 0; i < readme_lines.size(); ++i) {
    for (auto it = std::sregex_iterator(readme_lines[i].begin(),
                                        readme_lines[i].end(), kDocKnob);
         it != std::sregex_iterator(); ++it) {
      const std::string name = it->str();
      if (registry.count(name) || reported_doc.count(name)) continue;
      reported_doc.insert(name);
      ReportFinding(readme_lines, "README.md", i + 1, "knobs",
                    "unregistered-knob",
                    name + " is documented in README.md but missing from " +
                        kDefPath + "; register it or drop the stale row",
                    &findings);
    }
  }

  SortFindings(&findings);
  return findings;
}

}  // namespace analyze
}  // namespace whitenrec
