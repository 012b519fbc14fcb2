// `craft` driver tests: verb dispatch and its usage contract (no verb or an
// unknown verb exits 2 and lists the verbs; --help and --version exit 0 at
// the top level and for every verb), and the I/O half of the exit-code
// convention: a verb whose output document cannot be written, or whose
// input cannot be parsed, exits 2.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace craft {
namespace {

const char* const kVerbs[] = {"lint",  "prove", "stats", "trace",
                              "pulse", "chaos", "cover", "farm"};

int RunCommand(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `craft ARGS`, capturing stdout and stderr into files named after
/// the running test (ctest runs the cases in parallel); returns the exit
/// code.
int Craft(const std::string& args, std::string* out, std::string* err) {
  const std::string base = ::testing::TempDir() + "driver_test." +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const int code = RunCommand(std::string(CRAFT_BIN) + args + " >" + base +
                              ".out 2>" + base + ".err");
  *out = ReadFileOrEmpty(base + ".out");
  *err = ReadFileOrEmpty(base + ".err");
  return code;
}

// A per-tool executable name is not a verb either: the driver dispatches on
// the verb argument alone.
TEST(Driver, MissingOrUnknownVerbExits2AndListsVerbs) {
  for (const char* args : {"", " bogus", " craft_lint"}) {
    std::string out, err;
    EXPECT_EQ(Craft(args, &out, &err), 2) << args;
    EXPECT_TRUE(out.empty()) << args;
    for (const char* verb : kVerbs)
      EXPECT_NE(err.find(std::string("  ") + verb + " "), std::string::npos)
          << args << ": " << verb;
  }
}

TEST(Driver, HelpAndVersionExitZero) {
  std::string out, err;
  ASSERT_EQ(Craft(" --help", &out, &err), 0);
  for (const char* verb : kVerbs)
    EXPECT_NE(out.find(std::string("  ") + verb + " "), std::string::npos) << verb;
  ASSERT_EQ(Craft(" --version", &out, &err), 0);
  EXPECT_EQ(out, "craft 1.0.0\n");
}

TEST(Driver, EveryVerbHelpExitsZero) {
  for (const char* verb : kVerbs) {
    std::string out, err;
    EXPECT_EQ(Craft(std::string(" ") + verb + " --help", &out, &err), 0) << verb;
    EXPECT_EQ(out.rfind(std::string("usage: craft ") + verb, 0), 0u) << verb;
  }
}

/// The process rows of a `craft stats` text report, wall-time column cut.
std::vector<std::string> ProcessRows(const std::string& report) {
  std::vector<std::string> rows;
  std::istringstream in(report);
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.find("processes (top 10 by dispatches)") != std::string::npos) {
      in_section = true;
    } else if (in_section && line.find(" dispatches ") != std::string::npos) {
      rows.push_back(line.substr(0, line.find("  wall ")));
    } else if (in_section) {
      break;
    }
  }
  return rows;
}

// The text report ranks processes by their deterministic dispatch counts
// (ties by name), so two runs list the same processes in the same order.
TEST(Driver, StatsTextProcessRowsAreDeterministic) {
  std::string first, second, err;
  ASSERT_EQ(Craft(" stats --workload dot", &first, &err), 0) << err;
  ASSERT_EQ(Craft(" stats --workload dot", &second, &err), 0) << err;
  const std::vector<std::string> rows = ProcessRows(first);
  EXPECT_EQ(rows.size(), 10u) << first;
  EXPECT_EQ(ProcessRows(second), rows);
}

// Every verb writes its documents through one checked helper: a write that
// fails (here: to the always-full /dev/full) is an I/O error, exit 2, never
// a silent success.
TEST(Driver, UnwritableOutputExits2) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  const std::string dir = ::testing::TempDir() + "driver_full";
  mkdir(dir.c_str(), 0777);
  const std::string shard = dir + "/shard.json";
  ASSERT_EQ(RunCommand(std::string(CRAFT_BIN) +
                       " cover run --design li_pipeline --messages 16 -o " +
                       shard + " 2>/dev/null"),
            0);
  const std::string cases[] = {
      " lint --quiet --json=/dev/full",
      " lint --quiet --sarif=/dev/full",
      " lint --quiet --json >/dev/full",
      " prove --quiet --json=/dev/full",
      " prove --quiet --sarif=/dev/full",
      " stats --quiet --workload dma_copy --json=/dev/full",
      " stats --quiet --workload dma_copy --format openmetrics >/dev/full",
      " trace --quiet --workload dma_copy -o /dev/full",
      " trace --quiet --workload dma_copy -o " + dir + "/t.json --json=/dev/full",
      " pulse --quiet --windows 2 --json=/dev/full",
      " pulse --quiet --windows 2 --openmetrics=/dev/full",
      " chaos --quick --quiet --trials 1 --messages 16 --json=/dev/full",
      " chaos --quick --quiet --trials 1 --messages 16 --cover=/dev/full",
      " cover run --design li_pipeline --messages 16 -o /dev/full",
      " cover merge -o /dev/full " + shard,
      " cover report " + shard + " >/dev/full",
      " cover diff " + shard + " " + shard + " >/dev/full",
      " farm --design li_pipeline --messages 8 --quiet --out-dir " + dir +
          "/farm --manifest /dev/full",
      " farm --design li_pipeline --messages 8 --quiet --out-dir " + dir +
          "/farm --cover-out /dev/full",
  };
  for (const std::string& args : cases)
    EXPECT_EQ(RunCommand(std::string(CRAFT_BIN) + args + " 2>/dev/null"), 2) << args;
}

// A file nested past the JSON parser's depth cap is a malformed input,
// exit 2, not a stack overflow.
TEST(Driver, DeeplyNestedInputExits2) {
  const std::string path = ::testing::TempDir() + "driver_deep.json";
  std::ofstream(path) << std::string(2'000'000, '[');
  std::string out, err;
  EXPECT_EQ(Craft(" cover report " + path, &out, &err), 2);
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
}

}  // namespace
}  // namespace craft
