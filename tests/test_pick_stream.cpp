// Pick-stream pins: the seeded single-threaded engines must keep choosing
// the SAME match at every step, so journals, CLI output and serve replies
// stay byte-identical across store refactors. The program below is
// deliberately non-confluent (`replace x, y by x` keeps whichever element
// the pick stream happens to choose), so any change to bucket order or to
// the `n` fed into rng->bounded(n) shows up as a different journal.
//
// The goldens under tests/golden/ were captured with the CLI itself:
//   gammaflow rungamma tests/golden/replace_xy.gamma --engine idx --seed 7
//       --init "[0] ... [63]" --record-out pick_idx_seed7.json
//   (the same with --worklist instead of --engine idx)
//   gammaflow serve tests/golden/replace_xy.gamma --stdio < (the script
//       written by ServeTranscriptMatchesGolden)
// Serve replies carry a wall-clock `quiesce_us`; it is masked before the
// comparison, everything else must match byte for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fs::path golden(const std::string& name) {
  return fs::path(GF_REPO_DIR) / "tests" / "golden" / name;
}

/// Runs `args` through the built CLI and returns its stdout.
std::string run_cli(const std::string& args) {
  const std::string cmd = std::string(GF_CLI_PATH) + " " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    out.append(chunk.data(), n);
  }
  EXPECT_EQ(pclose(pipe), 0) << cmd;
  return out;
}

/// Replaces every `"quiesce_us":<number>` value (wall-clock time) with 0.
std::string mask_wall_clock(std::string text) {
  static const std::string kKey = R"("quiesce_us":)";
  for (std::size_t at = text.find(kKey); at != std::string::npos;
       at = text.find(kKey, at)) {
    at += kKey.size();
    const std::size_t end = text.find_first_not_of("0123456789.e+-", at);
    text.replace(at, end - at, "0");
  }
  return text;
}

std::string init_ints(int count) {
  std::string init;
  for (int i = 0; i < count; ++i) {
    if (i > 0) init += ' ';
    init += "[" + std::to_string(i) + "]";
  }
  return init;
}

class PickStream : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gf_pick_stream_" + std::to_string(::getpid()) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Records a seeded rungamma run of the pinned program and returns the
  /// journal text.
  std::string record(const std::string& engine_args) {
    const fs::path out = dir_ / "journal.json";
    run_cli("rungamma " + golden("replace_xy.gamma").string() + " --init \"" +
            init_ints(64) + "\" " + engine_args + " --seed 7 --record-out " +
            out.string() + " 2>/dev/null");
    return read_file(out);
  }

  fs::path dir_;
};

TEST_F(PickStream, IndexedJournalMatchesGolden) {
  EXPECT_EQ(record("--engine idx"), read_file(golden("pick_idx_seed7.json")));
}

TEST_F(PickStream, WorklistJournalMatchesGolden) {
  EXPECT_EQ(record("--worklist"), read_file(golden("pick_worklist_seed7.json")));
}

TEST_F(PickStream, ServeTranscriptMatchesGolden) {
  const fs::path script = dir_ / "script.jsonl";
  {
    std::ofstream out(script);
    out << R"({"verb":"create","init":")";
    for (int i = 0; i < 32; ++i) out << (i > 0 ? " " : "") << i * 3;
    out << R"(","seed":7,"record":true})" << '\n'
        << R"({"verb":"inject","session":"s1","elements":"100 101 102 103"})"
        << '\n'
        << R"({"verb":"snapshot","session":"s1"})" << '\n'
        << R"({"verb":"create","init":"9 8 7 6 5 4 3 2 1","seed":3})" << '\n'
        << R"({"verb":"inject","session":"s2","elements":"40 41"})" << '\n'
        << R"({"verb":"inject","session":"s1","elements":"7 7 7 7 7 7 7 7"})"
        << '\n'
        << R"({"verb":"query","session":"s1"})" << '\n'
        << R"({"verb":"snapshot","session":"s2"})" << '\n'
        << R"({"verb":"close","session":"s2"})" << '\n'
        << R"({"verb":"close","session":"s1"})" << '\n'
        << R"({"verb":"shutdown"})" << '\n';
  }
  const std::string transcript =
      run_cli("serve " + golden("replace_xy.gamma").string() + " --stdio < " +
              script.string());
  EXPECT_EQ(mask_wall_clock(transcript),
            read_file(golden("pick_serve_session.jsonl")));
}

}  // namespace
