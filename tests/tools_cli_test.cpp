// End-to-end coverage of the command-line tools: fork/exec the real
// binaries (speedbalancer against short-lived child programs, the simulator
// front ends on short scenarios) and check exit-status plumbing, option
// handling and report determinism. The binary paths are injected by CMake.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

#ifndef SPEEDBALANCER_BIN
#define SPEEDBALANCER_BIN "speedbalancer"
#endif

/// Run the tool with the given arguments; returns its exit status or -1.
int run_tool(std::vector<std::string> args) {
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    std::vector<char*> argv;
    std::string bin = SPEEDBALANCER_BIN;
    argv.push_back(bin.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SpeedbalancerCli, PropagatesChildExitZero) {
  EXPECT_EQ(run_tool({"--interval=20", "--startup-delay=1", "/bin/true"}), 0);
}

TEST(SpeedbalancerCli, PropagatesChildExitCode) {
  EXPECT_EQ(run_tool({"--interval=20", "--startup-delay=1", "/bin/false"}), 1);
}

TEST(SpeedbalancerCli, BalancesAShortLivedWorkload) {
  // A real child doing ~100 ms of shell work while the balancer samples it.
  EXPECT_EQ(run_tool({"--interval=10", "--startup-delay=1", "--cores=0",
                      "/bin/sh", "-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"}),
            0);
}

TEST(SpeedbalancerCli, UsageErrorWithoutCommand) {
  EXPECT_EQ(run_tool({"--interval=20"}), 2);
}

TEST(SpeedbalancerCli, MissingProgramReports127) {
  EXPECT_EQ(run_tool({"--startup-delay=1", "/nonexistent-program-xyz"}), 127);
}

#ifndef SIMRUN_BIN
#define SIMRUN_BIN "simrun"
#endif

#ifndef SERVESIM_BIN
#define SERVESIM_BIN "servesim"
#endif

#ifndef CLUSTERSIM_BIN
#define CLUSTERSIM_BIN "clustersim"
#endif

#ifndef OBSQUERY_BIN
#define OBSQUERY_BIN "obsquery"
#endif

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Run `bin` with `args`. Its stdout lands in *stdout_out (discarded when
/// null) and its stderr in *stderr_out (left on the test's stderr when
/// null). Returns the exit status, or -1.
int run_captured(const std::string& bin, std::vector<std::string> args,
                 std::string* stdout_out, std::string* stderr_out) {
  static int counter = 0;
  const std::string tag =
      std::to_string(getpid()) + "_" + std::to_string(counter++);
  const std::string out_path = testing::TempDir() + "cli_stdout_" + tag;
  const std::string err_path = testing::TempDir() + "cli_stderr_" + tag;
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    const char* out = stdout_out != nullptr ? out_path.c_str() : "/dev/null";
    if (freopen(out, "w", stdout) == nullptr) _exit(125);
    if (stderr_out != nullptr &&
        freopen(err_path.c_str(), "w", stderr) == nullptr)
      _exit(125);
    std::vector<char*> argv;
    std::string path = bin;
    argv.push_back(path.data());
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(126);
  }
  int status = 0;
  waitpid(child, &status, 0);
  if (stdout_out != nullptr) {
    *stdout_out = read_file(out_path);
    std::remove(out_path.c_str());
  }
  if (stderr_out != nullptr) {
    *stderr_out = read_file(err_path);
    std::remove(err_path.c_str());
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run simrun with stdout silenced and stderr captured into *stderr_out
/// (when non-null); returns the exit status or -1.
int run_simrun(std::vector<std::string> args, std::string* stderr_out = nullptr) {
  return run_captured(SIMRUN_BIN, std::move(args), nullptr, stderr_out);
}

/// True when `path` exists, is non-empty, and starts with a JSON object.
bool is_nonempty_json_object(const std::string& path) {
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const auto first = text.find_first_not_of(" \t\n");
  return first != std::string::npos && text[first] == '{';
}

TEST(SimrunCli, RunsSmallScenario) {
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1"}),
            0);
}

TEST(SimrunCli, RejectsUnknownSetup) {
  EXPECT_EQ(run_simrun({"--setup=BOGUS"}), 2);
}

TEST(SimrunCli, UnknownSetupErrorListsAvailableSetups) {
  std::string err;
  EXPECT_EQ(run_simrun({"--setup=BOGUS"}, &err), 2);
  EXPECT_NE(err.find("unknown setup: BOGUS"), std::string::npos) << err;
  // The error enumerates every accepted name.
  for (const char* name : {"One-per-core", "PINNED", "LOAD-YIELD",
                           "LOAD-SLEEP", "SPEED-YIELD", "SPEED-SLEEP", "DWRR",
                           "FreeBSD"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, RejectsUnknownLogLevel) {
  std::string err;
  EXPECT_EQ(run_simrun({"--setup=PINNED", "--log-level=chatty"}, &err), 2);
  EXPECT_NE(err.find("unknown log level"), std::string::npos) << err;
}

TEST(SimrunCli, WritesTraceAndReportFiles) {
  const std::string trace = testing::TempDir() + "simrun_trace.json";
  const std::string report = testing::TempDir() + "simrun_report.json";
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--trace-out=" + trace, "--report-json=" + report}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(trace));
  EXPECT_TRUE(is_nonempty_json_object(report));
  // Spot-check the expected top-level structure.
  std::ifstream tr(trace);
  std::string trace_text((std::istreambuf_iterator<char>(tr)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.find("global speed"), std::string::npos);
  std::ifstream rp(report);
  std::string report_text((std::istreambuf_iterator<char>(rp)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(report_text.find("\"speed_timeline\""), std::string::npos);
  EXPECT_NE(report_text.find("\"pulls.performed\""), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

TEST(SimrunCli, UnwritableTraceFileFails) {
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--trace-out=/nonexistent-dir/t.json"}),
            2);
}

TEST(SpeedbalancerCli, WritesTraceAndReportFiles) {
  const std::string trace = testing::TempDir() + "sbal_trace.json";
  const std::string report = testing::TempDir() + "sbal_report.json";
  EXPECT_EQ(run_tool({"--interval=10", "--startup-delay=1", "--cores=0",
                      "--trace-out=" + trace, "--report-json=" + report,
                      "/bin/sh", "-c",
                      "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(trace));
  EXPECT_TRUE(is_nonempty_json_object(report));
  std::ifstream rp(report);
  std::string report_text((std::istreambuf_iterator<char>(rp)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(report_text.find("\"tool\""), std::string::npos);
  EXPECT_NE(report_text.find("speedbalancer"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

/// Run simrun with stdout captured into *stdout_out; returns exit status.
int run_simrun_stdout(std::vector<std::string> args, std::string* stdout_out) {
  return run_captured(SIMRUN_BIN, std::move(args), stdout_out, nullptr);
}

TEST(SimrunCli, ListSetupsPrintsOnePerLineAndExitsZero) {
  std::string out;
  EXPECT_EQ(run_simrun_stdout({"--list-setups"}, &out), 0);
  for (const char* name : {"One-per-core", "PINNED", "LOAD-YIELD",
                           "LOAD-SLEEP", "SPEED-YIELD", "SPEED-SLEEP", "DWRR",
                           "FreeBSD"})
    EXPECT_NE(out.find(std::string(name) + "\n"), std::string::npos)
        << "missing " << name << " in: " << out;
  // The serve scenarios are advertised alongside the batch setups.
  for (const char* name : {"SERVE-SPEED", "SERVE-LOAD", "SERVE-PINNED",
                           "SERVE-DWRR", "SERVE-ULE", "SERVE-NONE"})
    EXPECT_NE(out.find(std::string(name) + "\n"), std::string::npos)
        << "missing " << name << " in: " << out;
  // Nothing but the names: no table header, no scenario output.
  EXPECT_EQ(out.find("=="), std::string::npos) << out;
}

// --- Serve mode --------------------------------------------------------------

TEST(SimrunCli, RunsServeScenario) {
  EXPECT_EQ(run_simrun({"--serve", "--topo=generic2", "--workers=2",
                        "--rate=200", "--duration-s=0.3", "--warmup-s=0.05"}),
            0);
}

TEST(SimrunCli, ServeSetupSpellingRoutesToServeMode) {
  EXPECT_EQ(run_simrun({"--setup=SERVE-PINNED", "--topo=generic2",
                        "--workers=2", "--rate=200", "--duration-s=0.3",
                        "--warmup-s=0.05"}),
            0);
}

TEST(SimrunCli, UnknownServePolicyListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve=FASTEST", "--duration-s=0.1"}, &err), 2);
  EXPECT_NE(err.find("unknown serve policy: FASTEST"), std::string::npos)
      << err;
  for (const char* name : {"SPEED", "LOAD", "PINNED", "DWRR", "ULE", "NONE"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, UnknownArrivalProcessListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve", "--arrival=lunar", "--duration-s=0.1"},
                       &err),
            2);
  EXPECT_NE(err.find("unknown arrival process: lunar"), std::string::npos)
      << err;
  for (const char* name : {"poisson", "bursty", "diurnal"})
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
}

TEST(SimrunCli, UnknownIdleModeListsValidValues) {
  std::string err;
  EXPECT_EQ(run_simrun({"--serve", "--idle=spin", "--duration-s=0.1"}, &err),
            2);
  EXPECT_NE(err.find("unknown idle mode: spin"), std::string::npos) << err;
  EXPECT_NE(err.find("sleep, yield"), std::string::npos) << err;
}

TEST(SimrunCli, ServeWritesReportWithLatencyHistograms) {
  const std::string report = testing::TempDir() + "serve_report.json";
  EXPECT_EQ(run_simrun({"--serve", "--topo=generic2", "--workers=2",
                        "--rate=200", "--duration-s=0.5", "--warmup-s=0.05",
                        "--report-json=" + report}),
            0);
  EXPECT_TRUE(is_nonempty_json_object(report));
  std::ifstream rp(report);
  std::string text((std::istreambuf_iterator<char>(rp)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"request_latency\""), std::string::npos);
  EXPECT_NE(text.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"serve.completed\""), std::string::npos);
  std::remove(report.c_str());
}

/// Run servesim with stdout captured; returns exit status.
int run_servesim(std::vector<std::string> args, std::string* stdout_out) {
  return run_captured(SERVESIM_BIN, std::move(args), stdout_out, nullptr);
}

TEST(ServesimCli, ListPoliciesAndDispatchExitZero) {
  std::string out;
  EXPECT_EQ(run_servesim({"--list-policies"}, &out), 0);
  for (const char* name : {"SPEED", "LOAD", "PINNED"})
    EXPECT_NE(out.find(name), std::string::npos) << "missing " << name;
  EXPECT_EQ(run_servesim({"--list-dispatch"}, &out), 0);
  for (const char* name : {"rr", "least-loaded", "jsq"})
    EXPECT_NE(out.find(name), std::string::npos) << "missing " << name;
  EXPECT_EQ(run_servesim({"--list-arrivals"}, &out), 0);
  EXPECT_NE(out.find("poisson"), std::string::npos);
}

TEST(ServesimCli, RunsShortServe) {
  std::string out;
  EXPECT_EQ(run_servesim({"--topo=generic2", "--workers=2", "--rate=200",
                          "--duration-s=0.3", "--warmup-s=0.05",
                          "--policy=LOAD"},
                         &out),
            0);
  EXPECT_NE(out.find("latency p99"), std::string::npos) << out;
}

TEST(SimrunCli, RunsPerturbedScenario) {
  EXPECT_EQ(
      run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                  "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                  "--perturb=at=5ms dvfs core=0 scale=0.5; at=10ms offline core=1"}),
      0);
}

TEST(SimrunCli, MalformedPerturbSpecNamesTheToken) {
  std::string err;
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--perturb=at=2s wibble core=0"},
                       &err),
            2);
  EXPECT_NE(err.find("simrun:"), std::string::npos) << err;
  EXPECT_NE(err.find("wibble"), std::string::npos) << err;
  // The message teaches the valid kinds.
  EXPECT_NE(err.find("dvfs"), std::string::npos) << err;
}

TEST(SimrunCli, MissingPerturbJsonFileFails) {
  std::string err;
  EXPECT_EQ(run_simrun({"--topo=generic2", "--bench=ep.S", "--threads=3",
                        "--cores=2", "--setup=SPEED-YIELD", "--repeats=1",
                        "--perturb-json=/nonexistent-dir/timeline.json"},
                       &err),
            2);
  EXPECT_NE(err.find("timeline"), std::string::npos) << err;
}

// --- Parallel-execution determinism ------------------------------------------
// --jobs only changes wall-clock, never results: reports and traces must be
// byte-identical between sequential and wide execution.

/// Run simrun writing report (and optionally trace) files; returns their
/// contents via out-params. Fails the test on a non-zero exit.
void run_for_artifacts(std::vector<std::string> args, std::string* report_text,
                       std::string* trace_text) {
  static int counter = 0;
  const std::string tag = std::to_string(getpid()) + "_" + std::to_string(counter++);
  const std::string report = testing::TempDir() + "jobs_report_" + tag + ".json";
  const std::string trace = testing::TempDir() + "jobs_trace_" + tag + ".json";
  args.push_back("--report-json=" + report);
  if (trace_text != nullptr) args.push_back("--trace-out=" + trace);
  ASSERT_EQ(run_simrun(args), 0);
  std::ifstream rp(report);
  *report_text = std::string((std::istreambuf_iterator<char>(rp)),
                             std::istreambuf_iterator<char>());
  std::remove(report.c_str());
  if (trace_text != nullptr) {
    std::ifstream tr(trace);
    *trace_text = std::string((std::istreambuf_iterator<char>(tr)),
                              std::istreambuf_iterator<char>());
    std::remove(trace.c_str());
  }
  ASSERT_FALSE(report_text->empty());
}

TEST(SimrunCli, JobsDoNotChangeBatchReportOrTrace) {
  for (const char* setup : {"SPEED-YIELD", "LOAD-YIELD"}) {
    const std::vector<std::string> base = {
        "--topo=generic4", "--bench=ep.S", "--threads=6",  "--cores=4",
        "--setup=" + std::string(setup),   "--repeats=6",  "--seed=7"};
    std::string report1, trace1, report8, trace8;
    auto args1 = base;
    args1.push_back("--jobs=1");
    run_for_artifacts(args1, &report1, &trace1);
    auto args8 = base;
    args8.push_back("--jobs=8");
    run_for_artifacts(args8, &report8, &trace8);
    EXPECT_EQ(report1, report8) << "report diverged for " << setup;
    EXPECT_EQ(trace1, trace8) << "trace diverged for " << setup;
    EXPECT_NE(trace1.find("\"traceEvents\""), std::string::npos);
  }
}

TEST(SimrunCli, JobsDoNotChangeServeReport) {
  const std::vector<std::string> base = {
      "--serve",         "--topo=generic2", "--workers=2", "--rate=300",
      "--duration-s=0.4", "--warmup-s=0.05", "--repeats=4", "--seed=11"};
  std::string report1, report8;
  auto args1 = base;
  args1.push_back("--jobs=1");
  run_for_artifacts(args1, &report1, /*trace_text=*/nullptr);
  auto args8 = base;
  args8.push_back("--jobs=8");
  run_for_artifacts(args8, &report8, /*trace_text=*/nullptr);
  EXPECT_EQ(report1, report8);
}

// --- obsquery ----------------------------------------------------------------

/// Run obsquery with stdout captured; returns exit status.
int run_obsquery(std::vector<std::string> args, std::string* stdout_out) {
  return run_captured(OBSQUERY_BIN, std::move(args), stdout_out, nullptr);
}

TEST(ObsqueryCli, UsageErrorWithoutReport) {
  std::string out;
  EXPECT_EQ(run_obsquery({}, &out), 1);
}

TEST(ObsqueryCli, MissingReportFileFails) {
  std::string out;
  EXPECT_EQ(run_obsquery({"--report=/nonexistent-dir/report.json"}, &out), 1);
}

TEST(ObsqueryCli, AnswersQueriesOverATracedServeReport) {
  // One traced serve episode at 1/1 sampling feeds every obsquery view.
  const std::string report = testing::TempDir() + "obsquery_report_" +
                             std::to_string(getpid()) + ".json";
  std::string out;
  ASSERT_EQ(run_servesim({"--topo=generic4", "--workers=8", "--policy=SPEED",
                          "--idle=yield", "--utilization=0.7",
                          "--duration-s=0.5",
                          "--warmup-s=0.1", "--span-sampling=0", "--seed=3",
                          "--perturb=at=50ms dvfs core=0 scale=0.5",
                          "--report-json=" + report},
                         &out),
            0);

  EXPECT_EQ(run_obsquery({"--report=" + report}, &out), 0);
  EXPECT_NE(out.find("per-class attribution"), std::string::npos) << out;
  EXPECT_NE(out.find("slowest requests"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--slowest=3"}, &out), 0);
  EXPECT_NE(out.find("sojourn_ms"), std::string::npos) << out;
  EXPECT_NE(out.find("blame"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--blame"}, &out), 0);
  EXPECT_NE(out.find("queue %"), std::string::npos) << out;
  EXPECT_NE(out.find("p99_ms"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--storms"}, &out), 0);
  EXPECT_NE(out.find("storm window"), std::string::npos) << out;

  EXPECT_EQ(run_obsquery({"--report=" + report, "--pulls"}, &out), 0);
  EXPECT_NE(out.find("sample_seq indexes speed_timeline"), std::string::npos)
      << out;

  std::remove(report.c_str());
}

TEST(ServesimCli, OverheadGatePassesWithGenerousBudget) {
  // --max-overhead-pct=100 can only fail if the meter exceeds the episode
  // wall time; this exercises the gate plumbing, not the budget.
  std::string out;
  EXPECT_EQ(run_servesim({"--topo=generic2", "--workers=2", "--rate=200",
                          "--duration-s=0.3", "--warmup-s=0.05",
                          "--policy=SPEED", "--span-sampling=6",
                          "--max-overhead-pct=100"},
                         &out),
            0);
  EXPECT_NE(out.find("tracing overhead %"), std::string::npos) << out;
  EXPECT_NE(out.find("sampled spans"), std::string::npos) << out;
}

TEST(SimrunCli, RejectsUnknownTopology) {
  EXPECT_EQ(run_simrun({"--topo=vax780", "--setup=PINNED"}), 2);
}

TEST(SimrunCli, RejectsUnknownBenchmark) {
  EXPECT_EQ(run_simrun({"--bench=linpack.Z"}), 2);
}

// --- One policy list ----------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

/// The comma-separated names of an error's "(available: a, b, c)" list.
std::vector<std::string> available_names(const std::string& err) {
  const std::string open = "(available: ";
  const auto begin = err.find(open);
  const auto end = err.find(')', begin);
  if (begin == std::string::npos || end == std::string::npos) return {};
  std::vector<std::string> out;
  std::istringstream is(err.substr(begin + open.size(),
                                   end - begin - open.size()));
  for (std::string name; std::getline(is, name, ',');)
    out.push_back(name.substr(name.find_first_not_of(' ')));
  return out;
}

TEST(ToolsCli, ListPoliciesPrintsExactlyThePoliciesEachToolAccepts) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> tools = {
      {SERVESIM_BIN, {"--topo=generic2", "--workers=2"}},
      {CLUSTERSIM_BIN, {"--topo=generic2", "--nodes=2"}}};
  for (const auto& [bin, shape] : tools) {
    std::string listed;
    ASSERT_EQ(run_captured(bin, {"--list-policies"}, &listed, nullptr), 0);
    const std::vector<std::string> names = split_lines(listed);
    EXPECT_NE(std::find(names.begin(), names.end(), "SHARE"), names.end())
        << bin << ": " << listed;
    // Every listed policy runs...
    for (const std::string& name : names) {
      std::vector<std::string> args = shape;
      args.insert(args.end(), {"--policy=" + name, "--duration-s=0.2",
                               "--warmup-s=0.05"});
      EXPECT_EQ(run_captured(bin, args, nullptr, nullptr), 0)
          << bin << " rejects listed policy " << name;
    }
    // ...and the rejection of any other name offers exactly the same list.
    std::string err;
    EXPECT_EQ(run_captured(bin, {"--policy=FASTEST"}, nullptr, &err), 2);
    EXPECT_EQ(available_names(err), names) << bin << ": " << err;
  }
}

// --- clustersim ----------------------------------------------------------------

const std::vector<std::string> kShortCluster = {
    "--nodes=3", "--duration-s=0.5", "--warmup-s=0.1", "--seed=9"};

/// Run clustersim on kShortCluster plus `extra`, writing a JSON report;
/// returns the report's text (empty, with a test failure, on a non-zero
/// exit).
std::string clustersim_report(const std::vector<std::string>& extra) {
  static int counter = 0;
  const std::string report = testing::TempDir() + "cluster_report_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(counter++) + ".json";
  std::vector<std::string> args = kShortCluster;
  args.insert(args.end(), extra.begin(), extra.end());
  args.push_back("--report-json=" + report);
  EXPECT_EQ(run_captured(CLUSTERSIM_BIN, args, nullptr, nullptr), 0);
  const std::string text = read_file(report);
  std::remove(report.c_str());
  return text;
}

TEST(ClustersimCli, RunsShortCluster) {
  std::string out;
  EXPECT_EQ(run_captured(CLUSTERSIM_BIN, kShortCluster, &out, nullptr), 0);
  EXPECT_NE(out.find("latency p99"), std::string::npos) << out;
  EXPECT_NE(out.find("nodes x pools"), std::string::npos) << out;
}

TEST(ClustersimCli, BurstFactorShapesBurstyArrivals) {
  const std::string base = clustersim_report({"--arrival=bursty"});
  const std::string steep =
      clustersim_report({"--arrival=bursty", "--burst-factor=16"});
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base, steep);
}

TEST(ClustersimCli, MissingPerturbJsonFileFailsNamingTheFile) {
  std::vector<std::string> args = kShortCluster;
  args.push_back("--perturb-json=/nonexistent-dir/timeline.json");
  std::string err;
  EXPECT_EQ(run_captured(CLUSTERSIM_BIN, args, nullptr, &err), 2);
  EXPECT_NE(err.find("clustersim:"), std::string::npos) << err;
  EXPECT_NE(err.find("/nonexistent-dir/timeline.json"), std::string::npos)
      << err;
}

TEST(ClustersimCli, UnknownDispatchListsValidValues) {
  for (const char* flag : {"--dispatch=nope", "--pool-dispatch=nope"}) {
    std::string err;
    EXPECT_EQ(run_captured(CLUSTERSIM_BIN, {flag}, nullptr, &err), 2);
    EXPECT_NE(err.find("unknown"), std::string::npos) << err;
    EXPECT_NE(err.find("nope"), std::string::npos) << err;
    for (const char* name : {"rr", "least-loaded", "jsq"})
      EXPECT_NE(err.find(name), std::string::npos)
          << flag << ": missing " << name << " in: " << err;
  }
}

TEST(ClustersimCli, JobsDoNotChangeReplicatedReport) {
  const std::string one = clustersim_report({"--repeats=2", "--jobs=1"});
  const std::string four = clustersim_report({"--repeats=2", "--jobs=4"});
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

}  // namespace
