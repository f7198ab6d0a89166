// benchmark_selftest: pins the measurement rules of lncl_benchmark — the
// percentile rule, output checks, JSON output, strict flags, GitRevision —
// and that `lncl_benchmark --list` names exactly what BENCHMARK.json names.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "harness.h"

namespace lncl::benchmark {
namespace {

namespace fs = std::filesystem;

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(39), 50.0);
  EXPECT_EQ(TailPercentile(40), 75.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(999), 95.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
}

TEST(Percentile, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.75), 7.5);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

util::Matrix Rows(const std::vector<std::vector<float>>& rows) {
  util::Matrix m(static_cast<int>(rows.size()),
                 static_cast<int>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      m(static_cast<int>(r), static_cast<int>(c)) = rows[r][c];
    }
  }
  return m;
}

TEST(OutputChecks, NanOrShortRowFailsTheOp) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(RowStochastic(Rows({{0.25f, 0.75f}, {1.0f, 0.0f}})));
  EXPECT_FALSE(RowStochastic(Rows({{0.25f, 0.75f}, {nan, 1.0f}})));
  EXPECT_FALSE(RowStochastic(Rows({{0.5f, 0.4f}})));  // sums to 0.9
  EXPECT_FALSE(RowStochastic(Rows({{1.2f, -0.2f}})));
  EXPECT_FALSE(RowStochastic(
      Rows({{std::numeric_limits<float>::infinity(), 0.0f}})));

  const std::vector<util::Matrix> good = {Rows({{0.5f, 0.5f}}),
                                          Rows({{0.0f, 1.0f}})};
  std::vector<util::Matrix> bad = good;
  bad.push_back(Rows({{0.5f, 0.4f}}));
  EXPECT_TRUE(AllRowStochastic(good));
  EXPECT_FALSE(AllRowStochastic(bad));
}

TEST(OutputChecks, HashSeesEveryBitAndShape) {
  const std::vector<util::Matrix> a = {Rows({{0.5f, 0.5f}})};
  std::vector<util::Matrix> b = a;
  EXPECT_EQ(HashMatrices(a), HashMatrices(b));
  b[0](0, 0) = std::nextafter(0.5f, 1.0f);
  EXPECT_NE(HashMatrices(a), HashMatrices(b));
  const std::vector<util::Matrix> column = {Rows({{0.5f}, {0.5f}})};
  EXPECT_NE(HashMatrices(a), HashMatrices(column));
}

TEST(Json, NonFiniteIsNullAndDigitsAreKept) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(2.0), "2");
}

TEST(Json, StringsAreEscaped) {
  EXPECT_EQ(JsonString("plain"), "\"plain\"");
  EXPECT_EQ(JsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonString("x\ny\t\x01"), "\"x\\ny\\t\\u0001\"");
}

TEST(Json, ResultLine) {
  Result r;
  r.correct = true;
  r.attempted = 3;
  r.failed = 0;
  r.metrics = {{"op_p10_ms", 1.5, "ms"},
               {"score", std::nan(""), "fraction"}};
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"op_p10_ms\": {\"value\": 1.5, \"unit\": "
            "\"ms\"}, \"score\": {\"value\": null, \"unit\": "
            "\"fraction\"}}}");
}

bool Parses(const std::vector<std::string>& args, Flags* flags = nullptr) {
  Flags local;
  std::string error;
  const bool ok = ParseFlags(args, flags != nullptr ? flags : &local, &error);
  EXPECT_EQ(ok, error.empty()) << error;
  return ok;
}

TEST(Flags, AcceptsTheDocumentedForms) {
  Flags f;
  ASSERT_TRUE(Parses({"--workload=ner_fit", "--seed=42", "--seconds=2.5",
                      "--trace=out/trace"},
                     &f));
  EXPECT_EQ(f.workload, "ner_fit");
  EXPECT_EQ(f.seed, 42u);
  EXPECT_DOUBLE_EQ(f.seconds, 2.5);
  EXPECT_EQ(f.trace_dir, "out/trace");
  Flags list;
  ASSERT_TRUE(Parses({"--list"}, &list));
  EXPECT_TRUE(list.list);
  Flags defaults;
  ASSERT_TRUE(Parses({"--workload=ner_serve", "--seconds=3"}, &defaults));
  EXPECT_EQ(defaults.seed, 1u);
  EXPECT_TRUE(defaults.trace_dir.empty());
  Flags traced;
  ASSERT_TRUE(Parses({"--workload=ner_serve", "--trace=t"}, &traced));
  EXPECT_EQ(traced.trace_dir, "t");
}

TEST(Flags, RejectsEverythingElse) {
  EXPECT_FALSE(Parses({"--workload=ner_fit"}));  // untraced needs --seconds
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed=x"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed=1x"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed=-1"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed="}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed=99999999999999999999"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seconds=0"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seconds=nan"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seconds=3s"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--trace="}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--threads=4"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed", "4"}));
  EXPECT_FALSE(Parses({"--workload=ner_fit", "--seed=1", "--seed=2"}));
  EXPECT_FALSE(Parses({"--workload=table3"}));
  EXPECT_FALSE(Parses({"--seed=1"}));
  EXPECT_FALSE(Parses({"workload=ner_fit"}));
}

TEST(Environment, FindsOnlyLnclVariables) {
  const char* entries[] = {"PATH=/bin", "LNCL_GEMM_KERNEL=scalar",
                           "XLNCL_FULL=1", "LNCL_FULL=1", nullptr};
  EXPECT_EQ(LnclEnvironment(const_cast<char**>(entries)),
            (std::vector<std::string>{"LNCL_GEMM_KERNEL", "LNCL_FULL"}));
}

constexpr char kHash[] = "0123456789abcdef0123456789abcdef01234567";
constexpr char kEnclosing[] = "fedcba9876543210fedcba9876543210fedcba98";

class GitRevisionTest : public ::testing::Test {
 protected:
  // root_ is itself a repository at another commit, so a lookup that walks
  // up from work/ reports kEnclosing instead of the expected answer.
  void SetUp() override {
    root_ = fs::current_path() /
            ("git_revision_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "work" / "sub");
    Write(root_ / ".git" / "HEAD", std::string(kEnclosing) + "\n");
  }
  void TearDown() override { fs::remove_all(root_); }

  static void Write(const fs::path& path, const std::string& text) {
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
  }

  fs::path root_;
};

TEST_F(GitRevisionTest, FollowsGitdirFile) {
  Write(root_ / "repo.git" / "HEAD", "ref: refs/heads/main\n");
  Write(root_ / "repo.git" / "refs" / "heads" / "main",
        std::string(kHash) + "\n");
  Write(root_ / "work" / ".git", "gitdir: ../repo.git\n");
  EXPECT_EQ(GitRevision((root_ / "work").string()), "0123456789ab");
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
  EXPECT_EQ(GitRevision((root_ / "work").string()), "0123456789ab");
}

TEST_F(GitRevisionTest, UnfollowableGitFileIsUnknown) {
  Write(root_ / "work" / ".git", "not a gitdir line\n");
  EXPECT_EQ(GitRevision((root_ / "work").string()), "unknown");
  Write(root_ / "work" / ".git", "gitdir: ../missing.git\n");
  EXPECT_EQ(GitRevision((root_ / "work").string()), "unknown");
}

TEST_F(GitRevisionTest, DetachedHead) {
  Write(root_ / "work" / ".git" / "HEAD", std::string(kHash) + "\n");
  EXPECT_EQ(GitRevision((root_ / "work").string()), "0123456789ab");
}

TEST_F(GitRevisionTest, ParentsAreNotSearched) {
  EXPECT_EQ(GitRevision((root_ / "work" / "sub").string()), "unknown");
}

// The "name" values inside the array that follows `"key":` in `json`. The
// scan for the closing bracket skips string contents ("why" texts may hold
// brackets).
std::vector<std::string> NamesIn(const std::string& json,
                                 const std::string& key) {
  std::vector<std::string> names;
  const size_t open = json.find('[', json.find("\"" + key + "\""));
  size_t close = open;
  bool in_string = false;
  for (int depth = 0; close < json.size(); ++close) {
    const char c = json[close];
    if (in_string) {
      if (c == '\\') ++close;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']' && --depth == 0) {
      break;
    }
  }
  const std::string body = json.substr(open, close - open);
  const std::string tag = "\"name\": \"";
  for (size_t at = body.find(tag); at != std::string::npos;
       at = body.find(tag, at + 1)) {
    const size_t start = at + tag.size();
    names.push_back(body.substr(start, body.find('"', start) - start));
  }
  return names;
}

TEST(List, NamesEqualBenchmarkJson) {
  std::ifstream is(LNCL_BENCHMARK_JSON);
  ASSERT_TRUE(is) << LNCL_BENCHMARK_JSON;
  std::stringstream json;
  json << is.rdbuf();

  FILE* pipe = ::popen(LNCL_BENCHMARK_BINARY " --list", "r");
  ASSERT_NE(pipe, nullptr);
  std::map<std::string, std::vector<std::string>> listed;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::istringstream fields(line);
    std::string section;
    std::string name;
    fields >> section >> name;
    listed[section].push_back(name);
  }
  ASSERT_EQ(::pclose(pipe), 0);

  EXPECT_EQ(listed["workload"], NamesIn(json.str(), "workloads"));
  EXPECT_EQ(listed["end_to_end"], NamesIn(json.str(), "end_to_end"));
  EXPECT_EQ(listed["per_layer"], NamesIn(json.str(), "per_layer"));
  EXPECT_EQ(listed.size(), 3u);
}

}  // namespace
}  // namespace lncl::benchmark
