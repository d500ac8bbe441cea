// Hostile text through the built CLI must end in a documented error, never a
// crash. Most cases below overflowed the stack of a recursive parser (exit
// 139) before its nesting was capped at expr::kMaxExprDepth: the expression
// parser, which reads `.gamma` guards, `.src` expressions and serve `create`
// programs, and the `.src` statement parser's nested blocks. Two are
// evaluation errors raised on the parallel engines' threads; others are Int
// division that trapped (SIGFPE, exit 136) and a real literal out of
// double's range, in Gamma text and in a `.df` value. The last checks that the CLI links the way the build's
// configure probe chose.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

namespace {

namespace fs = std::filesystem;

struct CliRun {
  int exit_code = -1;  // -1 when the process did not exit normally
  std::string output;  // stdout and stderr, interleaved
};

/// Runs `args` through the built CLI with stderr folded into stdout.
CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(GF_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliRun run;
  if (pipe == nullptr) return run;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    run.output.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string nested(std::size_t depth, const std::string& inner) {
  return std::string(depth, '(') + inner + std::string(depth, ')');
}

class CliInput : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gf_cli_input_" + std::to_string(::getpid()) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << text;
    return path;
  }

  fs::path dir_;
};

constexpr const char* kNestingError = "nesting deeper than 256";

TEST_F(CliInput, RungammaRejectsDeeplyParenthesizedGuard) {
  const fs::path prog = write(
      "paren.gamma",
      "R = replace x, y by x where " + nested(20'000, "x < y") + "\n");
  const CliRun run =
      run_cli("rungamma " + prog.string() + " --init \"[1] [2]\"");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output,
            "gammaflow: ParseError at 1:285: " + std::string(kNestingError) +
                "\n");
}

TEST_F(CliInput, RungammaRejectsDeepPrefixMinusChain) {
  const fs::path prog =
      write("neg.gamma", "R = replace x, y by x where " +
                             std::string(50'000, '-') + "x < y\n");
  const CliRun run =
      run_cli("rungamma " + prog.string() + " --init \"[1] [2]\"");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(kNestingError), std::string::npos) << run.output;
}

TEST_F(CliInput, RunRejectsDeeplyParenthesizedSource) {
  const fs::path prog = write(
      "paren.src", "int x = 1;\nm = " + nested(20'000, "x") + ";\noutput m;\n");
  const CliRun run = run_cli("run " + prog.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output,
            "gammaflow: ParseError at 2:261: " + std::string(kNestingError) +
                "\n");
}

TEST_F(CliInput, RunRejectsDeeplyNestedSourceBlocks) {
  // 20k nested `if` bodies used to recurse once per block in the statement
  // parser and crash with exit 139.
  std::string text = "int x = 1;\n";
  for (int i = 0; i < 20'000; ++i) text += "if (x > 0) {\n";
  text += "x = x + 1;\n";
  for (int i = 0; i < 20'000; ++i) text += "}\n";
  text += "output x;\n";
  const fs::path prog = write("blocks.src", text);
  const CliRun run = run_cli("run " + prog.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(run.output,
            "gammaflow: ParseError at 258:12: " + std::string(kNestingError) +
                "\n");
}

/// A guard `x < y + 1 + 1 ...` with `operators` binary operators.
std::string flat_guard_program(std::size_t operators) {
  std::string text = "R = replace x, y by x where x < y";
  for (std::size_t i = 1; i < operators; ++i) text += " + 1";
  return text + "\n";
}

TEST_F(CliInput, RungammaRejectsFlatGuardPastTheOperatorCap) {
  // 100k terms used to parse, then crash in the passes that recurse down
  // the chain (exit 139).
  const fs::path prog = write("flat.gamma", flat_guard_program(100'000));
  const CliRun run =
      run_cli("rungamma " + prog.string() + " --init \"[1] [2]\"");
  EXPECT_EQ(run.exit_code, 1) << run.output.substr(0, 200);
  // The 4097th operator is the 4096th '+'.
  const std::size_t column =
      std::string("R = replace x, y by x where x < y").size() + 4 * 4095 + 2;
  EXPECT_EQ(run.output, std::string("gammaflow: ParseError at 1:")
                            .append(std::to_string(column))
                            .append(": more than 4096 binary operators in "
                                    "one expression\n"));
}

TEST_F(CliInput, RungammaRunsAFlatGuardAtTheOperatorCap) {
  const fs::path prog = write("flat.gamma", flat_guard_program(4096));
  for (const char* engine : {"--engine idx", "--engine par --workers 4"}) {
    const CliRun run = run_cli("rungamma " + prog.string() +
                               " --init \"[1] [2] [3]\" " + engine);
    EXPECT_EQ(run.exit_code, 0) << engine << ": " << run.output;
  }
}

TEST_F(CliInput, RungammaParallelEvaluationErrorExitsOne) {
  // The parallel engine used to evaluate in worker threads with no handler
  // and abort (exit 134); it now reports the error as the indexed one does.
  const fs::path prog = write("div.gamma", "R = replace x, y by x / y\n");
  const std::string args =
      "rungamma " + prog.string() + " --init \"[4] [0] [7] [2] [0]\"";
  const std::string want = "gammaflow: TypeError: integer division by zero\n";
  const CliRun idx = run_cli(args + " --engine idx");
  EXPECT_EQ(idx.exit_code, 1) << idx.output;
  EXPECT_EQ(idx.output, want);
  const CliRun par = run_cli(args + " --engine par --workers 4");
  EXPECT_EQ(par.exit_code, 1) << par.output;
  EXPECT_EQ(par.output, want);
}

TEST_F(CliInput, RunParallelEvaluationErrorExitsOne) {
  // The parallel dataflow engine fired in worker threads with no handler
  // too (exit 134); it now reports the error as the interpreter does.
  const fs::path prog = write("div.src", "int a = 1;\nint b = 0;\n"
                                         "m = a / b;\noutput m;\n");
  const std::string args = "run " + prog.string();
  const std::string want = "gammaflow: TypeError: integer division by zero\n";
  const CliRun interp = run_cli(args);
  EXPECT_EQ(interp.exit_code, 1) << interp.output;
  EXPECT_EQ(interp.output, want);
  const CliRun par = run_cli(args + " --engine par --workers 4");
  EXPECT_EQ(par.exit_code, 1) << par.output;
  EXPECT_EQ(par.output, want);
}

TEST_F(CliInput, ServeStdioRejectsDeepCreateAndKeepsServing) {
  const fs::path script = write(
      "script.jsonl",
      R"({"verb":"create","session":"s","program":"R = replace x, y by x where )" +
          nested(20'000, "x < y") + "\"}\n" + R"({"verb":"ping"})" + "\n");
  const CliRun run =
      run_cli("serve " + std::string(GF_REPO_DIR) +
              "/examples/programs/min.gamma --stdio < " + script.string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output,
            R"({"error":"bad_program","message":"ParseError at 1:285: )" +
                std::string(kNestingError) + "\",\"ok\":false}\n" +
                R"({"ok":true,"pong":true})" + "\n");
}

TEST_F(CliInput, ServeStdioRejectsLongInjectAndKeepsServing) {
  // A 100k-term element field used to crash the daemon (SIGSEGV) in the
  // fold that follows parsing; it is now a bad_elements reply.
  std::string field = "1";
  for (int i = 0; i < 100'000; ++i) field += "+1";
  const fs::path script = write(
      "script.jsonl",
      std::string(R"({"verb":"create","session":"s"})") + "\n" +
          R"({"verb":"inject","session":"s","elements":"[)" + field +
          ",'a']\"}\n" + R"({"verb":"ping"})" + "\n");
  const CliRun run =
      run_cli("serve " + std::string(GF_REPO_DIR) +
              "/examples/programs/min.gamma --stdio < " + script.string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // The create reply carries a timing; the two after it are exact.
  const std::size_t created = run.output.find('\n');
  ASSERT_NE(created, std::string::npos) << run.output;
  EXPECT_EQ(run.output.substr(created + 1),
            R"({"error":"bad_elements","message":"ParseError at 1:8195: )"
            R"(more than 4096 binary operators in one expression","ok":false})"
            "\n" R"({"ok":true,"pong":true})" "\n");
}

TEST_F(CliInput, CheckPassesAComputedLabelProgram) {
  // P computes its output label from a consumed value ('b'), so lint must
  // not call C dead: rungamma fires it, and check exits 0.
  const fs::path prog = write("computed.gamma",
                              "P = replace [l, 'go'] by [1, l]\n"
                              "C = replace [x, 'b'] by [x, 'done']\n");
  const std::string args = prog.string() + " --init \"['b', 'go']\"";
  const CliRun check = run_cli("check " + args);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_EQ(check.output.find("dead-reaction"), std::string::npos)
      << check.output;
  const CliRun run = run_cli("rungamma " + args);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.substr(0, run.output.find('\n')), "{[1, 'done']}");
}

TEST_F(CliInput, RungammaDividesInt64MinByMinusOne) {
  // Both used to raise SIGFPE while the element reader folded the field.
  const std::string min_gamma =
      std::string(GF_REPO_DIR) + "/examples/programs/min.gamma";
  const CliRun div = run_cli("rungamma " + min_gamma +
                             " --init \"[(-9223372036854775807-1)/-1]\"");
  EXPECT_EQ(div.exit_code, 0) << div.output;
  EXPECT_EQ(div.output.substr(0, div.output.find('\n')),
            "{[-9223372036854775808]}");
  const CliRun mod = run_cli("rungamma " + min_gamma +
                             " --init \"[(-9223372036854775807-1)%-1]\"");
  EXPECT_EQ(mod.exit_code, 0) << mod.output;
  EXPECT_EQ(mod.output.substr(0, mod.output.find('\n')), "{[0]}");
}

TEST_F(CliInput, ServeStdioDividesInt64MinByMinusOneAndKeepsServing) {
  // The inject used to kill the daemon (exit 136, no reply).
  const fs::path script = write(
      "script.jsonl",
      std::string(R"({"verb":"create","session":"s"})") + "\n" +
          R"({"verb":"inject","session":"s","elements":)"
          R"("[(-9223372036854775807-1)/-1]"})" "\n" +
          R"({"verb":"ping"})" + "\n");
  const CliRun run =
      run_cli("serve " + std::string(GF_REPO_DIR) +
              "/examples/programs/min.gamma --stdio < " + script.string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // The create and inject replies carry timings; check their verdicts.
  const std::size_t created = run.output.find('\n');
  ASSERT_NE(created, std::string::npos) << run.output;
  const std::size_t injected = run.output.find('\n', created + 1);
  ASSERT_NE(injected, std::string::npos) << run.output;
  const std::string inject_reply =
      run.output.substr(created + 1, injected - created - 1);
  EXPECT_NE(inject_reply.find(R"("ok":true)"), std::string::npos)
      << inject_reply;
  EXPECT_NE(inject_reply.find(R"("store_size":1)"), std::string::npos)
      << inject_reply;
  EXPECT_EQ(run.output.substr(injected + 1), R"({"ok":true,"pong":true})"
                                             "\n");
}

TEST_F(CliInput, RungammaRejectsRealLiteralOutOfRange) {
  // Used to escape as std::out_of_range: "gammaflow: stod".
  const std::string min_gamma =
      std::string(GF_REPO_DIR) + "/examples/programs/min.gamma";
  for (const char* literal : {"1e400", "1e-400"}) {
    const CliRun run =
        run_cli("rungamma " + min_gamma + " --init \"[" + literal + "]\"");
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_EQ(run.output,
              std::string("gammaflow: ParseError at 1:2: real literal out "
                          "of range: ") +
                  literal + "\n");
  }
}

TEST_F(CliInput, RunRejectsDfRealOutOfRange) {
  // `.df` values had a number parser of their own: "gammaflow: stod".
  const fs::path value = write("value.df",
                               "dataflow v1\n"
                               "node kind=const value=1e400 name='c'\n");
  const fs::path imm = write("imm.df",
                             "dataflow v1\n"
                             "node kind=const value=1 name='c'\n"
                             "node kind=arith op=+ imm=1e-400 name='a'\n");
  const CliRun a = run_cli("run " + value.string());
  EXPECT_EQ(a.exit_code, 1) << a.output;
  EXPECT_EQ(a.output,
            "gammaflow: ParseError at 2:1: real literal out of range: 1e400\n");
  const CliRun b = run_cli("run " + imm.string());
  EXPECT_EQ(b.exit_code, 1) << b.output;
  EXPECT_EQ(b.output,
            "gammaflow: ParseError at 3:1: real literal out of range: "
            "1e-400\n");
}

TEST_F(CliInput, DfTextCarriesRealsExactly) {
  // `.df` text used to print reals with 6 significant digits, so a compiled
  // program ran on a rounded constant, and `inf` did not read back.
  const fs::path pi = write("pi.src", "x = 3.14159265; y = x * 2.0; output y;\n");
  const fs::path pi_df = dir_ / "pi.df";
  ASSERT_EQ(run_cli("compile " + pi.string() + " > " + pi_df.string()).exit_code,
            0);
  const CliRun from_src = run_cli("run " + pi.string());
  const CliRun from_df = run_cli("run " + pi_df.string());
  EXPECT_EQ(from_src.exit_code, 0) << from_src.output;
  EXPECT_EQ(from_df.output, from_src.output);
  EXPECT_EQ(from_df.output.substr(0, from_df.output.find('\n')),
            "y = 6.28319");

  const fs::path big = write("big.src", "x = 1e308 * 10.0; output x;\n");
  const fs::path big_df = dir_ / "big.df";
  ASSERT_EQ(run_cli("opt " + big.string() + " > " + big_df.string()).exit_code,
            0);
  const CliRun inf = run_cli("run " + big_df.string());
  EXPECT_EQ(inf.exit_code, 0) << inf.output;
  EXPECT_EQ(inf.output.substr(0, inf.output.find('\n')), "x = inf");
}

TEST_F(CliInput, ServeStdioRejectsRealLiteralOutOfRangeAndKeepsServing) {
  // Used to answer {"error":"internal","message":"stod"}.
  const fs::path script = write(
      "script.jsonl",
      std::string(R"({"verb":"create","session":"s"})") + "\n" +
          R"({"verb":"inject","session":"s","elements":"[1e400]"})" "\n" +
          R"({"verb":"ping"})" + "\n");
  const CliRun run =
      run_cli("serve " + std::string(GF_REPO_DIR) +
              "/examples/programs/min.gamma --stdio < " + script.string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const std::size_t created = run.output.find('\n');
  ASSERT_NE(created, std::string::npos) << run.output;
  EXPECT_EQ(run.output.substr(created + 1),
            R"({"error":"bad_elements","message":"ParseError at 1:2: )"
            R"(real literal out of range: 1e400","ok":false})"
            "\n" R"({"ok":true,"pong":true})" "\n");
}

/// Whether the ELF executable at `path` names a program interpreter (a
/// PT_INTERP program header: the dynamic loader). nullopt when the file is
/// not a little-endian 64-bit ELF this reader understands.
std::optional<bool> elf_has_interpreter(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::array<unsigned char, 64> header{};
  if (!in.read(reinterpret_cast<char*>(header.data()), header.size())) {
    return std::nullopt;
  }
  // A little-endian field of `bytes` bytes at `p`.
  const auto field = [](const unsigned char* p, int bytes) {
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  };
  // "\x7fELF", ELFCLASS64, ELFDATA2LSB.
  if (std::memcmp(header.data(), "\x7f" "ELF", 4) != 0 || header[4] != 2 ||
      header[5] != 1) {
    return std::nullopt;
  }
  const std::uint64_t phoff = field(&header[32], 8);
  const std::uint64_t phentsize = field(&header[54], 2);
  const std::uint64_t phnum = field(&header[56], 2);
  constexpr std::uint64_t kPtInterp = 3;
  std::array<unsigned char, 4> type{};
  for (std::uint64_t i = 0; i < phnum; ++i) {
    in.seekg(static_cast<std::streamoff>(phoff + i * phentsize));
    if (!in.read(reinterpret_cast<char*>(type.data()), type.size())) {
      return std::nullopt;
    }
    if (field(type.data(), 4) == kPtInterp) return true;
  }
  return false;
}

TEST(CliLink, BinaryLinksAsTheConfigureProbeChose) {
  // The configure probe links the CLI statically where the toolchain can
  // (no dynamic loader to run at every start); a dependency that silently
  // breaks that would cost every run again, so it fails here instead.
  const std::optional<bool> interp = elf_has_interpreter(GF_CLI_PATH);
  if (!interp) GTEST_SKIP() << "not a 64-bit little-endian ELF: " << GF_CLI_PATH;
  EXPECT_EQ(*interp, !GF_CLI_STATIC)
      << GF_CLI_PATH << (GF_CLI_STATIC ? " should link statically"
                                       : " should link dynamically");
}

}  // namespace
