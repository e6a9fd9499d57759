// The minpower CLI rejects malformed numeric flag values with an error that
// names the flag and the value, and exits 1; it never dies on an uncaught
// std::stoul/std::stod exception or wraps a negative into a huge unsigned.
// Unknown flags and subcommands are fatal too, never silently ignored or
// mistaken for input files.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun run_cli(const std::string& args) {
  CliRun r;
  const std::string cmd = std::string(MP_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 256> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr)
    r.output += buf.data();
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(Cli, RejectsMalformedNumbersNamingFlagAndValue) {
  struct Case {
    const char* args;
    const char* flag;
    const char* value;
  };
  const Case cases[] = {
      {"verify --threads abc", "--threads", "'abc'"},
      {"flow --map-curve-cap -1", "--map-curve-cap", "'-1'"},
      {"verify --count 12x", "--count", "'12x'"},
      {"verify --seed 99999999999999999999", "--seed",
       "'99999999999999999999'"},
      {"compare --qor-rel-tol nan", "--qor-rel-tol", "'nan'"},
      {"trend --time-band 0.2.1", "--time-band", "'0.2.1'"},
      {"flow --shards 2000", "--shards", "'2000'"},
  };
  for (const Case& c : cases) {
    const CliRun r = run_cli(c.args);
    EXPECT_EQ(r.exit_code, 1) << c.args << "\n" << r.output;
    EXPECT_NE(r.output.find(c.flag), std::string::npos) << r.output;
    EXPECT_NE(r.output.find(c.value), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("stoul"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("stod"), std::string::npos) << r.output;
  }
}

TEST(Cli, AcceptsWellFormedNumbers) {
  const CliRun r = run_cli("verify --seed 5 --count 2 --time-band -1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Cli, RejectsUnknownFlags) {
  const std::string blif = testing::TempDir() + "cli_unknown_flag.blif";
  std::remove(blif.c_str());
  std::vector<std::pair<std::string, std::string>> cases = {
      {"stats " + blif + " --bogus", "--bogus"},
      {"bench cm42a -o " + blif + " --frobnicate", "--frobnicate"},
      {"flow --workerz 4 " + blif, "--workerz"},
      {"stats " + blif + " -", "-"},
  };
  // The flags of the retired `serve`/`client` subcommands.
  for (const char* flag :
       {"--port", "--host", "--workers", "--stats", "--shutdown",
        "--idle-timeout-ms", "--retries", "--retry-ms", "--timeout-ms",
        "--access-log"})
    cases.emplace_back("flow " + blif + " " + flag + " 1", flag);
  for (const auto& [args, flag] : cases) {
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown flag '" + flag + "'"), std::string::npos)
        << args << "\n" << r.output;
    EXPECT_EQ(r.output.find("cannot open"), std::string::npos) << r.output;
  }
  // The rejected `bench` run wrote nothing.
  EXPECT_FALSE(std::ifstream(blif).good());
}

TEST(Cli, BenchRejectsUnknownCircuit) {
  const std::string blif = testing::TempDir() + "cli_unknown_bench.blif";
  std::remove(blif.c_str());
  const CliRun r = run_cli("bench nosuch -o " + blif);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("'nosuch'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cm42a"), std::string::npos) << r.output;
  EXPECT_FALSE(std::ifstream(blif).good());
}

TEST(Cli, RejectsUnknownSubcommand) {
  for (const char* cmd : {"serve", "client"}) {
    const CliRun r = run_cli(cmd);
    EXPECT_EQ(r.exit_code, 1) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos)
        << r.output;
  }
}

}  // namespace
