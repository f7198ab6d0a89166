// The bench history writer (bench/bench_history.h): AppendBenchHistory's
// lncl.bench.v1 record and the shape-check verdicts it carries
// (ReportShapeChecks), and GitRevision(), which reads the revision from the
// current directory's repository without forking git, including checkouts
// whose .git is a file (worktrees and submodules), which must not be
// mistaken for an enclosing repository.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_history.h"

namespace lncl::bench {
namespace {

namespace fs = std::filesystem;

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(AppendBenchHistoryTest, OneRecordPerCallWithTheTimedFit) {
  const fs::path path =
      fs::temp_directory_path() /
      ("bench_history_test_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(path);
  core::LogicLnclResult fit;
  fit.best_dev_score = 0.8125;
  fit.best_epoch = 1;
  fit.dev_curve = {0.75, 0.8125};
  fit.loss_curve = {0.5, 0.25};
  fit.phase_seconds.total = 1.5;
  Int8Gate gate;
  gate.argmax_agreement = 0.5;
  const std::vector<ShapeCheck> checks = {
      {"unit.holds", {{"a", 2.5}, {"b", 1.0}}, true, false},
      {"unit.named", {{"c", 0.5}}, false, true}};
  ASSERT_TRUE(
      AppendBenchHistory("unit", 2.0, &fit, &gate, &checks, path.string()));
  ASSERT_TRUE(
      AppendBenchHistory("unit", 2.0, &fit, nullptr, nullptr, path.string()));
  ASSERT_TRUE(AppendBenchHistory("unit", 2.0, nullptr, nullptr, nullptr,
                                 path.string()));

  std::vector<std::string> lines;
  std::ifstream is(path);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  fs::remove(path);
  ASSERT_EQ(lines.size(), 3u);
  const std::string head =
      "{\"schema\": \"lncl.bench.v1\", \"bench\": \"unit\", ";
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind(head, 0), 0u) << line;
  }
  // A bench with a timed fit records exactly that fit, under its digest.
  const std::string digest = "\"digest\": \"" + FitDigest(fit) + "\"";
  for (const std::string& line : {lines[0], lines[1]}) {
    EXPECT_EQ(Count(line, "\"mode\""), 1u) << line;
    EXPECT_NE(line.find("\"fits\": [{\"mode\": \"batched\", " + digest),
              std::string::npos)
        << line;
  }
  EXPECT_NE(lines[2].find("\"fits\": []"), std::string::npos) << lines[2];
  // The int8 gate is recorded if and only if one is passed.
  EXPECT_NE(lines[0].find("\"int8_argmax_agreement\": 0.5}"),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1].find("int8_argmax_agreement"), std::string::npos);
  EXPECT_EQ(lines[2].find("int8_argmax_agreement"), std::string::npos);
  // So are the shape checks, with their values and verdicts.
  EXPECT_NE(lines[0].find(
                "\"shape_checks\": [{\"name\": \"unit.holds\", \"values\": "
                "{\"a\": 2.5, \"b\": 1}, \"pass\": true, \"deviation\": false}, "
                "{\"name\": \"unit.named\", \"values\": {\"c\": 0.5}, "
                "\"pass\": false, \"deviation\": true}], "),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1].find("shape_checks"), std::string::npos);
  EXPECT_EQ(lines[2].find("shape_checks"), std::string::npos);
}

TEST(ReportShapeChecksTest, OnlyAnUnnamedFailureFailsTheBench) {
  const fs::path md =
      fs::temp_directory_path() /
      ("shape_checks_test_" + std::to_string(::getpid()) + ".md");
  std::ofstream(md) << "- deviation `t.named`: measured 1.0 vs 2.0\n";
  std::vector<ShapeCheck> checks = {{"t.holds", {{"a", 1.0}}, true},
                                    {"t.named", {{"b", 1.0}}, false}};
  EXPECT_EQ(ReportShapeChecks(&checks, md.string()), 0);
  EXPECT_FALSE(checks[0].deviation);
  EXPECT_TRUE(checks[1].deviation);

  checks.push_back({"t.unnamed", {{"c", 1.0}}, false});
  EXPECT_EQ(ReportShapeChecks(&checks, md.string()), 1);
  EXPECT_FALSE(checks[2].deviation);
  fs::remove(md);

  // Without the file no failure is excused.
  EXPECT_EQ(ReportShapeChecks(&checks, md.string()), 1);
  EXPECT_FALSE(checks[1].deviation);
}

constexpr char kHash[] = "0123456789abcdef0123456789abcdef01234567";
constexpr char kEnclosing[] = "fedcba9876543210fedcba9876543210fedcba98";

class GitRevisionTest : public testing::Test {
 protected:
  // root_ is itself a repository at another commit, so a lookup that walks
  // past a .git file reports kEnclosing instead of the expected answer.
  void SetUp() override {
    cwd_ = fs::current_path();
    root_ = fs::temp_directory_path() /
            ("bench_history_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "work" / "sub");
    Write(root_ / ".git" / "HEAD", std::string(kEnclosing) + "\n");
  }
  void TearDown() override {
    fs::current_path(cwd_);
    fs::remove_all(root_);
  }

  static void Write(const fs::path& path, const std::string& text) {
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
  }

  static std::string RevisionIn(const fs::path& dir) {
    fs::current_path(dir);
    return GitRevision();
  }

  fs::path cwd_;
  fs::path root_;
};

TEST_F(GitRevisionTest, FollowsGitdirFile) {
  Write(root_ / "repo.git" / "HEAD", "ref: refs/heads/main\n");
  Write(root_ / "repo.git" / "refs" / "heads" / "main",
        std::string(kHash) + "\n");
  Write(root_ / "work" / ".git", "gitdir: ../repo.git\n");
  EXPECT_EQ(RevisionIn(root_ / "work"), "0123456789ab");
  // Below the checkout the walk up stops at the .git file, too.
  EXPECT_EQ(RevisionIn(root_ / "work" / "sub"), "0123456789ab");
}

TEST_F(GitRevisionTest, WorktreeRefsComeFromTheCommonDir) {
  Write(root_ / "main.git" / "packed-refs",
        "# pack-refs with: peeled\n" + std::string(kHash) +
            " refs/heads/topic\n");
  Write(root_ / "main.git" / "worktrees" / "w" / "HEAD",
        "ref: refs/heads/topic\n");
  Write(root_ / "main.git" / "worktrees" / "w" / "commondir", "../..\n");
  Write(root_ / "work" / ".git",
        "gitdir: " + (root_ / "main.git" / "worktrees" / "w").string());
  EXPECT_EQ(RevisionIn(root_ / "work"), "0123456789ab");
}

TEST_F(GitRevisionTest, UnfollowableGitFileIsUnknown) {
  Write(root_ / "work" / ".git", "not a gitdir line\n");
  EXPECT_EQ(RevisionIn(root_ / "work"), "unknown");
  Write(root_ / "work" / ".git", "gitdir: ../missing.git\n");
  EXPECT_EQ(RevisionIn(root_ / "work"), "unknown");
}

TEST_F(GitRevisionTest, WalksUpToAGitDirectory) {
  EXPECT_EQ(RevisionIn(root_ / "work" / "sub"), "fedcba987654");
}

}  // namespace
}  // namespace lncl::bench
