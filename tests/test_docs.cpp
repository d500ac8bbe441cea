// Doc-sync tests: the CLI flags documented in README.md / DESIGN.md /
// ARCHITECTURE.md must exist in `gammaflow --help`, and every flag the CLI
// advertises must be documented somewhere. Compiled with GF_CLI_PATH (the
// built binary) and GF_REPO_DIR (the source tree) so the test runs from any
// build directory.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string run_help() {
  const std::string cmd = std::string(GF_CLI_PATH) + " --help";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    out.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << "--help must exit 0";
  return out;
}

/// The matches of `--[a-z][a-z0-9-]*`, leftmost first, as a regex search
/// finds them. Scanned by hand: GCC 12's <regex> trips -Wmaybe-uninitialized
/// under the sanitizers.
std::set<std::string> extract_flags(const std::string& text) {
  const auto lower = [](char c) { return c >= 'a' && c <= 'z'; };
  const auto more = [&](char c) {
    return lower(c) || (c >= '0' && c <= '9') || c == '-';
  };
  std::set<std::string> flags;
  std::size_t i = 0;
  while ((i = text.find("--", i)) != std::string::npos) {
    if (i + 2 == text.size() || !lower(text[i + 2])) {
      ++i;
      continue;
    }
    std::size_t end = i + 3;
    while (end < text.size() && more(text[end])) ++end;
    flags.insert(text.substr(i, end - i));
    i = end;
  }
  return flags;
}

/// Flags that appear in the docs but belong to OTHER tools (cmake, ctest)
/// quoted in build instructions — not gammaflow options.
const std::set<std::string> kForeignFlags = {
    "--build", "--test-dir", "--output-on-failure", "--benchmark-filter",
    "--parallel"};

std::string docs_text() {
  const std::string repo(GF_REPO_DIR);
  return read_file(repo + "/README.md") + read_file(repo + "/DESIGN.md") +
         read_file(repo + "/ARCHITECTURE.md");
}

TEST(DocSync, EveryDocumentedFlagExistsInHelp) {
  const std::string help = run_help();
  ASSERT_FALSE(help.empty());
  for (const std::string& flag : extract_flags(docs_text())) {
    if (kForeignFlags.count(flag) > 0) continue;
    EXPECT_NE(help.find(flag), std::string::npos)
        << "docs mention '" << flag << "' but `gammaflow --help` does not";
  }
}

TEST(DocSync, EveryHelpFlagIsDocumented) {
  const std::string docs = docs_text();
  for (const std::string& flag : extract_flags(run_help())) {
    EXPECT_NE(docs.find(flag), std::string::npos)
        << "`gammaflow --help` advertises '" << flag
        << "' but README/DESIGN/ARCHITECTURE never mention it";
  }
}

TEST(DocSync, EveryDocumentedSubcommandExistsInHelp) {
  const std::string help = run_help();
  // The command list README's CLI section shows; each must be a usage line.
  for (const char* cmd :
       {"compile", "run", "togamma", "rungamma", "fuse", "expand",
        "optimize", "reconstruct", "dot", "viz", "opt", "lint", "check",
        "distrib", "serve", "help"}) {
    EXPECT_NE(help.find(std::string("  ") + cmd + " "), std::string::npos)
        << "subcommand '" << cmd << "' missing from --help";
  }
}

TEST(DocSync, HelpAliasesAgree) {
  // `help`, `--help`, and `-h` must all print the same usage text.
  const std::string base = run_help();
  for (const char* alias : {"help", "-h"}) {
    const std::string cmd = std::string(GF_CLI_PATH) + ' ' + alias;
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    std::array<char, 4096> chunk{};
    std::size_t n = 0;
    while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
      out.append(chunk.data(), n);
    }
    EXPECT_EQ(pclose(pipe), 0) << alias;
    EXPECT_EQ(out, base) << alias;
  }
}

TEST(DocSync, ArchitectureDocCoversEveryModule) {
  const std::string arch =
      read_file(std::string(GF_REPO_DIR) + "/ARCHITECTURE.md");
  for (const char* module :
       {"common", "obs", "expr", "runtime", "gamma", "dataflow", "translate",
        "analysis", "frontend", "paper", "distrib", "viz", "serve"}) {
    EXPECT_NE(arch.find(std::string("`") + module), std::string::npos)
        << "ARCHITECTURE.md never mentions module '" << module << "'";
  }
}

}  // namespace
