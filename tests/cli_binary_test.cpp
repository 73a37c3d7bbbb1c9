// End-to-end tests of the spta_cli BINARY (process-level): campaign ->
// CSV -> analyze/convergence round trips, usage errors, exit codes.
// The binary path is injected at build time via SPTA_CLI_PATH.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string CliPath() { return SPTA_CLI_PATH; }

int RunCli(const std::string& args, const std::string& stdout_file = "") {
  std::string cmd = CliPath() + " " + args;
  if (!stdout_file.empty()) cmd += " > " + stdout_file;
  cmd += " 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  return WEXITSTATUS(rc);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CliBinaryTest : public ::testing::Test {
 protected:
  void SetUp() override { csv_ = TempPath("samples.csv"); }
  void TearDown() override { std::remove(csv_.c_str()); }

  // A file name private to the running test case and process. ctest runs
  // every case as its own process, concurrently under -j, so a fixed name
  // under TempDir() would let parallel cases overwrite each other's files.
  static std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "spta_cli_" + info->name() + "_" +
           std::to_string(::getpid()) + "_" + name;
  }

  std::string csv_;
};

TEST_F(CliBinaryTest, NoArgumentsPrintsUsageAndFails) {
  EXPECT_EQ(RunCli(""), 2);
  EXPECT_EQ(RunCli("frobnicate"), 2);
}

TEST_F(CliBinaryTest, CampaignWritesWellFormedCsv) {
  ASSERT_EQ(RunCli("campaign --platform det --runs 60 --seed 3 --output " +
                   csv_),
            0);
  const std::string content = Slurp(csv_);
  EXPECT_EQ(content.rfind("cycles,path_id\n", 0), 0u);
  // Header + 60 data lines.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 61);
}

// The observability acceptance path: one campaign, three artifacts. The
// sample CSV must be byte-identical to a run without the obs flags, the
// trace must be a Chrome/Perfetto trace_event document, and the counter
// CSV must carry one row per run plus the aggregate JSON sidecar.
TEST_F(CliBinaryTest, CampaignObsFlagsProduceTraceAndCounters) {
  const std::string trace_json = TempPath("trace.json");
  const std::string counters = TempPath("counters.csv");
  const std::string plain_csv = TempPath("plain.csv");
  ASSERT_EQ(RunCli("campaign --platform rand --runs 40 --seed 7 --output " +
                   csv_ + " --trace-out " + trace_json + " --counters-out " +
                   counters),
            0);
  ASSERT_EQ(
      RunCli("campaign --platform rand --runs 40 --seed 7 --output " +
             plain_csv),
      0);
  EXPECT_EQ(Slurp(csv_), Slurp(plain_csv));  // obs flags never touch data

  const std::string trace = Slurp(trace_json);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"name\":\"tvca_campaign_parallel\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string counter_csv = Slurp(counters);
  EXPECT_NE(counter_csv.find("run,path_id,cycles,"), std::string::npos);
  // Comment + header + 40 rows.
  EXPECT_EQ(std::count(counter_csv.begin(), counter_csv.end(), '\n'), 42);
  const std::string aggregate = Slurp(counters + ".summary.json");
  EXPECT_NE(aggregate.find("\"runs\": 40"), std::string::npos);
  EXPECT_NE(aggregate.find("\"il1_misses\": "), std::string::npos);

  std::remove(trace_json.c_str());
  std::remove(counters.c_str());
  std::remove((counters + ".summary.json").c_str());
  std::remove(plain_csv.c_str());
}

TEST_F(CliBinaryTest, AnalyzeRoundTripSucceeds) {
  ASSERT_EQ(RunCli("campaign --platform rand --runs 250 --seed 9 --output " +
                   csv_),
            0);
  const std::string out = TempPath("analyze.txt");
  EXPECT_EQ(RunCli("analyze --input " + csv_ + " --per-path", out), 0);
  const std::string report = Slurp(out);
  EXPECT_NE(report.find("Ljung-Box"), std::string::npos);
  EXPECT_NE(report.find("pWCET"), std::string::npos);
  EXPECT_NE(report.find("path coverage"), std::string::npos);
  std::remove(out.c_str());
}

TEST_F(CliBinaryTest, AnalyzeRejectsTinySample) {
  std::ofstream(csv_) << "cycles,path_id\n100,0\n101,0\n";
  EXPECT_EQ(RunCli("analyze --input " + csv_), 2);
}

TEST_F(CliBinaryTest, AnalyzeRejectsMissingFile) {
  EXPECT_EQ(RunCli("analyze --input /nonexistent/nope.csv"), 2);
}

// --batch-lanes must not perturb the sample: the batched CSV is
// byte-identical to the serial runner's, for the checkpointed path too.
TEST_F(CliBinaryTest, BatchLanesCsvIsByteIdenticalToSerial) {
  const std::string batched = TempPath("batched.csv");
  const std::string serial_ctr = TempPath("serial_ctr");
  const std::string batched_ctr = TempPath("batched_ctr");
  ASSERT_EQ(RunCli("campaign --platform rand --runs 48 --seed 11 "
                   "--scenarios 6 --jobs 2 --counters-out " +
                   serial_ctr + " --output " + csv_),
            0);
  ASSERT_EQ(RunCli("campaign --platform rand --runs 48 --seed 11 "
                   "--scenarios 6 --jobs 2 --batch-lanes 8 --counters-out " +
                   batched_ctr + " --output " + batched),
            0);
  EXPECT_EQ(Slurp(batched), Slurp(csv_));
  // The per-run microarchitectural counters flatten RunResult.detail — so
  // the batched kernel's per-lane counters must match row for row too.
  EXPECT_EQ(Slurp(batched_ctr), Slurp(serial_ctr));
  EXPECT_NE(Slurp(serial_ctr).find("il1_misses"), std::string::npos);
  for (const auto& f : {batched, serial_ctr, batched_ctr,
                        serial_ctr + ".summary.json",
                        batched_ctr + ".summary.json"}) {
    std::remove(f.c_str());
  }
}

TEST_F(CliBinaryTest, BatchLanesRejectsFaultFlagsAndBadRange) {
  EXPECT_EQ(RunCli("campaign --platform rand --runs 4 --batch-lanes 8 "
                   "--seu-rate 0.001"),
            2);
  EXPECT_EQ(RunCli("campaign --platform rand --runs 4 --batch-lanes 99"), 2);
  EXPECT_EQ(RunCli("campaign --platform rand --runs 4 --batch-lanes -1"), 2);
}

TEST_F(CliBinaryTest, ConvergenceRunsOnCampaignOutput) {
  ASSERT_EQ(RunCli("campaign --platform rand --runs 450 --seed 4 --output " +
                   csv_),
            0);
  const std::string out = TempPath("conv.txt");
  const int rc = RunCli(
      "convergence --input " + csv_ + " --initial 150 --step 150 --tol 0.05",
      out);
  const std::string report = Slurp(out);
  EXPECT_NE(report.find("converged:"), std::string::npos);
  EXPECT_TRUE(rc == 0 || rc == 1);  // converged or honestly not
  std::remove(out.c_str());
}

}  // namespace
