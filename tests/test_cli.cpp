// The hmem_* command lines, checked against the flag tables they are
// parsed from (tools/flags.hpp): every value-taking flag of every tool is
// fed malformed values and must exit 2 without a signal, and the knl paper
// grid that hmem_sweep writes is pinned byte for byte.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "flags.hpp"

namespace {

using namespace hmem;

struct Row {
  std::string name;
  bool takes_value = false;
  /// The parser itself rejects every malformed value (count, real, size,
  /// choice); a text row leaves the check to the tool.
  bool typed = false;
  bool non_empty = false;
};

template <class Flags>
std::vector<Row> rows() {
  std::vector<Row> result;
  Flags flags;
  flags.for_each([&](const char* name, const auto& kind, const char*,
                     auto&) {
    Row row;
    row.name = name;
    row.takes_value = kind.kind != tools::cli::Kind::kBool;
    row.typed = row.takes_value && kind.kind != tools::cli::Kind::kText;
    if constexpr (requires { kind.non_empty; }) row.non_empty = kind.non_empty;
    result.push_back(row);
  });
  return result;
}

struct Tool {
  const char* name;
  /// Positionals and flags that make an otherwise valid, short command.
  const char* context;
  std::vector<Row> rows;
};

std::vector<Tool> tools_under_test() {
  return {
      {"hmem_profile", "snap out.trace", rows<tools::ProfileFlags>()},
      {"hmem_advise", "snap.trace 64M", rows<tools::AdviseFlags>()},
      {"hmem_run", "snap", rows<tools::RunFlags>()},
      {"hmem_sweep", "--smoke --apps churn", rows<tools::SweepFlags>()},
  };
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

struct Status {
  bool signaled = false;
  int code = -1;
};

/// Runs one tool command line inside `dir`, output discarded.
Status run_in(const std::string& dir, const std::string& command_tail) {
  const std::string command = "cd " + shell_quote(dir) + " && HMEM_FAULTS= " +
                              std::string(HMEM_TOOLS_DIR) + "/" +
                              command_tail + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  Status result;
  if (status < 0) return result;
  // The shell reports a child killed by signal N as exit 128 + N.
  result.signaled = WIFSIGNALED(status) ||
                    (WIFEXITED(status) && WEXITSTATUS(status) > 128);
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  return result;
}

bool tools_present() {
  std::ifstream in(std::string(HMEM_TOOLS_DIR) + "/hmem_sweep");
  return in.good();
}

std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("hmem_cli_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(CliTables, ChoiceListsParse) {
  // A choice row's metavar is its list of names; each must parse, so the
  // usage text never offers a value the tool rejects.
  auto check = [](auto flags) {
    flags.for_each([](const char* name, const auto& kind, const char*,
                      auto&) {
      if (kind.kind != tools::cli::Kind::kChoice) return;
      if constexpr (requires { kind.parse; }) {
        for (const std::string& choice : split(kind.metavar, '|')) {
          EXPECT_TRUE(kind.parse(choice).has_value()) << name << " " << choice;
        }
      }
    });
  };
  check(tools::ProfileFlags{});
  check(tools::AdviseFlags{});
  check(tools::RunFlags{});
  check(tools::SweepFlags{});
}

TEST(CliTables, MalformedValuesExitTwoWithoutASignal) {
  if (!tools_present()) {
    GTEST_SKIP() << "tool binaries not built in " << HMEM_TOOLS_DIR;
  }
  // No value here is a valid --jobs or --ranks, so no run starts threads.
  const std::vector<std::string> malformed = {
      "", "x", "-1", "1x", "nan", "1e400", "18446744073709551616"};
  const std::string dir = scratch_dir("malformed");
  // hmem_advise's context needs a real trace, so that a malformed value
  // reaches the advisor rather than stop at a missing file.
  ASSERT_EQ(run_in(dir, "hmem_profile snap snap.trace").code, 0);
  std::size_t checked = 0;
  for (const Tool& tool : tools_under_test()) {
    for (const Row& row : tool.rows) {
      if (!row.takes_value) continue;
      for (const std::string& value : malformed) {
        const std::string tail = std::string(tool.name) + " " + tool.context +
                                 " " + row.name + " " + shell_quote(value);
        const Status status = run_in(dir, tail);
        EXPECT_FALSE(status.signaled) << tail;
        if (row.typed || (row.non_empty && value.empty())) {
          EXPECT_EQ(status.code, 2) << tail;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200u);
  std::filesystem::remove_all(dir);
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) rows.push_back(split(line, ','));
  return rows;
}

TEST(Golden, PaperGridKnlIsPinned) {
  if (!tools_present()) {
    GTEST_SKIP() << "tool binaries not built in " << HMEM_TOOLS_DIR;
  }
  // Every paper-facing number of the knl grid (8 paper apps plus churn and
  // transient, the paper's four strategies and a dynamic cell per budget).
  const std::string dir = scratch_dir("golden");
  const Status status = run_in(
      dir, "hmem_sweep --strategies paper --dynamic --jobs 2 --out grid.csv");
  ASSERT_FALSE(status.signaled);
  ASSERT_EQ(status.code, 0);
  const auto golden =
      read_csv(std::string(HMEM_REPO_DIR) + "/tests/golden/paper_grid_knl.csv");
  const auto now = read_csv(dir + "/grid.csv");
  ASSERT_EQ(golden.size(), 221u) << "header plus 220 cells";
  EXPECT_EQ(now.size(), golden.size());
  const std::vector<std::string>& header = golden.front();
  for (std::size_t r = 0; r < std::min(golden.size(), now.size()); ++r) {
    const std::vector<std::string>& want = golden[r];
    const std::vector<std::string>& got = now[r];
    ASSERT_EQ(want.size(), header.size());
    if (got.size() != want.size()) {
      ADD_FAILURE() << "row " << r << " has " << got.size() << " fields";
      continue;
    }
    for (std::size_t f = 0; f < want.size(); ++f) {
      if (got[f] == want[f]) continue;
      // index, app, machine, kind, detail and budget name the cell.
      ADD_FAILURE() << "cell " << want[0] << " (" << want[1] << ' '
                    << want[3] << ' ' << want[4] << " @ " << want[5]
                    << "): " << header[f] << " is " << got[f]
                    << ", golden " << want[f];
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
