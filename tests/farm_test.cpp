// craft-farm tests: the trial scheduler library (timeouts, retries,
// fail-fast vs keep-going, pool parallelism) and `craft farm`'s
// jobs-invariance contract — manifest and merged cover database must be
// byte-identical for --jobs 1 vs --jobs 4.
#include <sys/stat.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "farm/farm.hpp"

namespace craft {
namespace {

using farm::Policy;

using farm::TrialResult;
using farm::TrialSpec;
using farm::TrialStatus;

TrialSpec Shell(const std::string& id, const std::string& script) {
  TrialSpec t;
  t.id = id;
  t.kind = "test";
  t.argv = {"/bin/sh", "-c", script};
  return t;
}

double Elapsed(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Library: exit codes, retries, timeouts

TEST(FarmRun, ReportsExitCodesPerTrial) {
  const std::vector<TrialSpec> trials = {
      Shell("t0", "exit 0"), Shell("t1", "exit 3"), Shell("t2", "exit 0")};
  const std::vector<TrialResult> r = farm::Run(trials, Policy{});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].status, TrialStatus::kOk);
  EXPECT_EQ(r[0].exit_code, 0);
  EXPECT_EQ(r[1].status, TrialStatus::kFailed);
  EXPECT_EQ(r[1].exit_code, 3);
  EXPECT_EQ(r[2].status, TrialStatus::kOk);
  for (const TrialResult& x : r) {
    EXPECT_EQ(x.attempts, 1u);  // no retries requested
    EXPECT_FALSE(x.timed_out);
  }
}

TEST(FarmRun, MissingBinaryFailsWith127) {
  const std::vector<TrialSpec> trials = {
      {"gone", "test", {"/nonexistent/craft_nope"}, "", ""}};
  const std::vector<TrialResult> r = farm::Run(trials, Policy{});
  EXPECT_EQ(r[0].status, TrialStatus::kFailed);
  EXPECT_EQ(r[0].exit_code, 127);
}

TEST(FarmRun, FailingTrialRetriedExactlyRetriesTimes) {
  Policy policy;
  policy.retries = 2;
  const std::vector<TrialResult> r = farm::Run({Shell("t0", "exit 7")}, policy);
  EXPECT_EQ(r[0].status, TrialStatus::kFailed);
  EXPECT_EQ(r[0].exit_code, 7);
  EXPECT_EQ(r[0].attempts, 3u);  // 1 try + exactly --retries extra
}

TEST(FarmRun, RetrySucceedsWhenTrialRecovers) {
  const std::string marker =
      ::testing::TempDir() + "farm_recover_marker";
  std::remove(marker.c_str());
  Policy policy;
  policy.retries = 1;
  // First attempt plants the marker and fails; the retry sees it and passes.
  const std::vector<TrialResult> r = farm::Run(
      {Shell("t0", "test -e " + marker + " && exit 0; touch " + marker +
                       "; exit 1")},
      policy);
  EXPECT_EQ(r[0].status, TrialStatus::kOk);
  EXPECT_EQ(r[0].exit_code, 0);
  EXPECT_EQ(r[0].attempts, 2u);
  std::remove(marker.c_str());
}

TEST(FarmRun, HangingTrialKilledByTimeoutAndRetried) {
  Policy policy;
  policy.timeout_s = 0.3;
  policy.retries = 2;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<TrialResult> r = farm::Run({Shell("hang", "sleep 60")}, policy);
  EXPECT_EQ(r[0].status, TrialStatus::kTimeout);
  EXPECT_TRUE(r[0].timed_out);
  EXPECT_EQ(r[0].attempts, 3u);      // every attempt hit the wall clock
  EXPECT_EQ(r[0].exit_code, -1);     // killed, not exited
  EXPECT_LT(Elapsed(t0), 20.0);      // 3 x 0.3 s, not 3 x 60 s
}

// ---------------------------------------------------------------------------
// Library: fail-fast vs keep-going, pool parallelism

TEST(FarmRun, FailFastCancelsQueuedTrials) {
  Policy policy;
  policy.jobs = 1;  // deterministic order: t0 fails before t1/t2 start
  policy.fail_fast = true;
  const std::vector<TrialSpec> trials = {
      Shell("t0", "exit 1"), Shell("t1", "exit 0"), Shell("t2", "exit 0")};
  const std::vector<TrialResult> r = farm::Run(trials, policy);
  EXPECT_EQ(r[0].status, TrialStatus::kFailed);
  EXPECT_EQ(r[1].status, TrialStatus::kCancelled);
  EXPECT_EQ(r[2].status, TrialStatus::kCancelled);
  EXPECT_EQ(r[1].attempts, 0u);  // never launched
  EXPECT_EQ(r[2].attempts, 0u);
}

TEST(FarmRun, KeepGoingCollectsAllFailures) {
  const std::vector<TrialSpec> trials = {
      Shell("t0", "exit 2"), Shell("t1", "exit 3"), Shell("t2", "exit 0"),
      Shell("t3", "exit 4")};
  const std::vector<TrialResult> r = farm::Run(trials, Policy{});  // no fail_fast
  EXPECT_EQ(r[0].exit_code, 2);
  EXPECT_EQ(r[1].exit_code, 3);
  EXPECT_EQ(r[2].status, TrialStatus::kOk);
  EXPECT_EQ(r[3].exit_code, 4);
  for (const TrialResult& x : r) EXPECT_EQ(x.attempts, 1u);  // all ran
}

TEST(FarmRun, PoolOverlapsTrials) {
  Policy policy;
  policy.jobs = 4;
  std::vector<TrialSpec> trials;
  for (int i = 0; i < 4; ++i)
    trials.push_back(Shell("s" + std::to_string(i), "sleep 0.6"));
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<TrialResult> r = farm::Run(trials, policy);
  const double secs = Elapsed(t0);
  for (const TrialResult& x : r) EXPECT_EQ(x.status, TrialStatus::kOk);
  EXPECT_LT(secs, 2.0);  // serial would be >= 2.4 s; sleeps overlap in a pool
}

TEST(FarmRun, ProgressStreamsOneLinePerAttempt) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  Policy policy;
  policy.retries = 1;
  policy.progress = stream;
  farm::Run({Shell("t0", "exit 3")}, policy);
  std::rewind(stream);
  char buf[4096] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, stream);
  std::fclose(stream);
  const std::string text(buf, n);
  EXPECT_NE(text.find("craft-farm[t0] attempt=1 status=failed exit=3"),
            std::string::npos);
  EXPECT_NE(text.find("craft-farm[t0] attempt=2 status=failed exit=3"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Binary: jobs-invariance and manifest reporting (`craft farm`)

#ifdef CRAFT_BIN

int RunCommand(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

// The ISSUE acceptance matrix: 2 designs x 3 seeds x 2 parallelism x chaos
// on/off = 24 cover trials, plus one quick chaos campaign per seed. --jobs
// must not leak into the merged cover db or the manifest.
TEST(FarmCli, MergedOutputsByteIdenticalAcrossJobs) {
  const std::string base = ::testing::TempDir();
  // Equal-length dir names: artifact paths embed the out-dir, so after
  // substituting one dir for the other the manifests must match exactly.
  const std::string dir1 = base + "farm_ident_j1";
  const std::string dir4 = base + "farm_ident_j4";
  const std::string matrix =
      " --design li_pipeline --design gals_pipeline"
      " --seed 1 --seed 2 --seed 3 --parallelism 1 --parallelism 2"
      " --chaos none --chaos latency --instrument cover --instrument chaos"
      " --messages 8 --quiet";
  ASSERT_EQ(RunCommand(std::string(CRAFT_BIN " farm") + matrix +
                       " --jobs 1 --out-dir " + dir1),
            0);
  ASSERT_EQ(RunCommand(std::string(CRAFT_BIN " farm") + matrix +
                       " --jobs 4 --out-dir " + dir4),
            0);

  const std::string cover1 = ReadFileOrEmpty(dir1 + "/cover.json");
  const std::string cover4 = ReadFileOrEmpty(dir4 + "/cover.json");
  ASSERT_FALSE(cover1.empty());
  EXPECT_EQ(cover1, cover4);  // merged cover db: byte-identical

  std::string man1 = ReadFileOrEmpty(dir1 + "/farm.json");
  std::string man4 = ReadFileOrEmpty(dir4 + "/farm.json");
  ASSERT_FALSE(man1.empty());
  EXPECT_NE(man1.find("\"schema\": \"craft-farm-v1\""), std::string::npos);
  EXPECT_NE(man1.find("\"trials\": 27"), std::string::npos);  // 24 cover + 3
  for (std::size_t at = man4.find(dir4); at != std::string::npos;
       at = man4.find(dir4, at))
    man4.replace(at, dir4.size(), dir1);
  EXPECT_EQ(man1, man4);  // manifest: byte-identical modulo the out-dir name
}

TEST(FarmCli, HangingTrialTimedOutRetriedAndReported) {
  const std::string base = ::testing::TempDir();
  const std::string dir = base + "farm_hang";
  mkdir(dir.c_str(), 0777);
  // A stand-in tool that hangs forever, installed via --bin.
  const std::string hang_bin = dir + "/hang.sh";
  {
    std::ofstream out(hang_bin);
    out << "#!/bin/sh\nsleep 60\n";
  }
  chmod(hang_bin.c_str(), 0755);
  const int code = RunCommand(
      std::string(CRAFT_BIN " farm") +
      " --design li_pipeline --seed 1 --parallelism 1 --chaos none"
      " --bin " + hang_bin +
      " --timeout 0.3 --retries 2 --quiet --out-dir " + dir);
  EXPECT_EQ(code, 1);  // unwaived failure gates the farm

  const std::string manifest = ReadFileOrEmpty(dir + "/farm.json");
  ASSERT_FALSE(manifest.empty());
  EXPECT_NE(manifest.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_NE(manifest.find("\"attempts\": 3"), std::string::npos);
  EXPECT_NE(manifest.find("\"timed_out\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"gated\": true"), std::string::npos);
}

TEST(FarmCli, WaiverUngatesFailedTrial) {
  const std::string base = ::testing::TempDir();
  const std::string dir = base + "farm_waive";
  mkdir(dir.c_str(), 0777);
  const std::string fail_bin = dir + "/fail.sh";
  {
    std::ofstream out(fail_bin);
    out << "#!/bin/sh\nexit 9\n";
  }
  chmod(fail_bin.c_str(), 0755);
  const std::string common =
      std::string(CRAFT_BIN " farm") +
      " --design li_pipeline --seed 1 --parallelism 1 --chaos none"
      " --bin " + fail_bin + " --quiet --out-dir " + dir;
  EXPECT_EQ(RunCommand(common), 1);                       // gated
  EXPECT_EQ(RunCommand(common + " --waive 'cover/*'"), 0);  // prefix waiver
  const std::string manifest = ReadFileOrEmpty(dir + "/farm.json");
  EXPECT_NE(manifest.find("\"waived\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"gated\": false"), std::string::npos);
}

TEST(FarmCli, BadAxisValueIsUsageError) {
  EXPECT_EQ(RunCommand(std::string(CRAFT_BIN " farm") +
                       " --chaos sometimes --quiet 2>/dev/null"),
            2);
  EXPECT_EQ(RunCommand(std::string(CRAFT_BIN " farm") +
                       " --parallelism 0 --quiet 2>/dev/null"),
            2);
}

#endif  // CRAFT_BIN

}  // namespace
}  // namespace craft
