// Cross-TU static analyzer driver. Loads the tree under --root, runs the
// layering / knobs / hotalloc passes (see analyze.h), prints findings to
// stderr, and writes the schema-validated ANALYZE.json artifact. Wired into
// the build as `check-analyze` and into ctest as the tier-1 analyze.tree
// test, so an upward include or a raw getenv fails CI the same
// way a broken unit test does.
//
// Usage: whitenrec_analyze --root <repo-root> [--out <path/ANALYZE.json>]

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tools/analyze/analyze.h"

namespace {

std::string ReadFileOrEmpty(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr, "usage: %s --root <repo-root> [--out <file>]\n",
                   argv[0]);
      return 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  namespace fs = std::filesystem;
  if (out_path.empty()) {
    out_path = (fs::path(root) / "out" / "ANALYZE.json").string();
  }

  const whitenrec::analyze::SourceTree tree =
      whitenrec::analyze::LoadTree(root);
  if (tree.files.empty()) {
    std::fprintf(stderr, "whitenrec_analyze: no sources under %s\n",
                 root.c_str());
    return 2;
  }
  whitenrec::analyze::TreeInputs inputs;
  inputs.knobs_def =
      ReadFileOrEmpty(fs::path(root) / "src" / "core" / "knobs.def");
  inputs.readme = ReadFileOrEmpty(fs::path(root) / "README.md");
  if (inputs.knobs_def.empty()) {
    std::fprintf(stderr, "whitenrec_analyze: missing src/core/knobs.def\n");
    return 2;
  }

  const whitenrec::analyze::AnalyzeResult result =
      whitenrec::analyze::AnalyzeTree(tree, inputs);
  for (const whitenrec::analyze::Finding& f : result.findings) {
    std::fprintf(stderr, "%s:%zu: [%s/%s] %s\n", f.file.c_str(), f.line,
                 f.pass.c_str(), f.rule.c_str(), f.message.c_str());
  }

  // Self-check the artifact against its own schema before writing it.
  const std::string json = whitenrec::analyze::ReportJson(result);
  const whitenrec::Status valid =
      whitenrec::analyze::ValidateAnalyzeReport(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "whitenrec_analyze: report failed self-check: %s\n",
                 valid.message().c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(fs::path(out_path).parent_path(), ec);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << json;
  if (!out) {
    std::fprintf(stderr, "whitenrec_analyze: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  out.close();

  if (!result.findings.empty()) {
    std::fprintf(stderr, "whitenrec_analyze: %zu finding(s) in %zu files\n",
                 result.findings.size(), result.files_scanned);
    return 1;
  }
  std::fprintf(stderr, "whitenrec_analyze: clean (%zu files) -> %s\n",
               result.files_scanned, out_path.c_str());
  return 0;
}
