// Self-test for scripts/kvec_lint.py (docs/STATIC_ANALYSIS.md).
//
// The lint pass is part of the build gate, so it gets the same treatment
// as any other component: a fixture directory of deliberate violations —
// one file per rule — that the linter MUST flag with the right rule id,
// and a clean fixture it MUST pass. A third test runs the linter over the
// real tree, which keeps "the tree is lint-clean" a tested invariant
// rather than a CI-only one.
//
// The fixtures live in tests/lint_fixtures/. The linter's directory walk
// prunes any directory named lint_fixtures, so the violations never leak
// into a normal `kvec_lint.py tests/` run; they are only scanned when the
// path is passed explicitly, as done here.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

// KVEC_TEST_DATA_DIR is "<repo_root>/tests/data"; the linter and fixtures
// are addressed relative to the repo root.
std::string RepoRoot() {
  std::string data_dir = KVEC_TEST_DATA_DIR;
  const std::string suffix = "/tests/data";
  if (data_dir.size() > suffix.size() &&
      data_dir.compare(data_dir.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
    return data_dir.substr(0, data_dir.size() - suffix.size());
  }
  return ".";
}

struct LintRun {
  int exit_code = -1;
  std::string output;
};

// Runs `python3 scripts/kvec_lint.py <args>` from the repo root, capturing
// stdout+stderr. Returns exit_code -1 when the process could not be run.
LintRun RunLint(const std::string& args) {
  const std::string command = "cd '" + RepoRoot() +
                              "' && python3 scripts/kvec_lint.py " + args +
                              " 2>&1";
  LintRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buffer;
  size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    run.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
}

bool HavePython3() {
  return std::system("python3 -c 'pass' >/dev/null 2>&1") == 0;
}

#define SKIP_WITHOUT_PYTHON3()                           \
  do {                                                   \
    if (!HavePython3()) {                                \
      GTEST_SKIP() << "python3 not available on PATH";   \
    }                                                    \
  } while (0)

TEST(LintTest, CleanFixturePasses) {
  SKIP_WITHOUT_PYTHON3();
  const LintRun run = RunLint("tests/lint_fixtures/clean");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(LintTest, ViolationFixturesFlagEveryRule) {
  SKIP_WITHOUT_PYTHON3();
  const LintRun run = RunLint("tests/lint_fixtures/violations");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // One fixture per rule; each must be flagged with its own rule id.
  const char* kExpected[] = {
      "[fault-point-doc]",  "[naked-new]",   "[banned-call]",
      "[pragma-once]",      "[iostream-outside-cli]",
      "[raw-syscall]",      "[test-wiring]", "[include-path]",
      "[pool-discipline]",  "[section-id]",  "[tsa-escape]",
      "[count-guard]",      "[env-knob]",    "[doc-ref]",
      // Not a configurable rule but a linter invariant: suppressions must
      // name a real rule and carry a reason.
      "[bad-allow]",
  };
  for (const char* rule : kExpected) {
    EXPECT_NE(run.output.find(rule), std::string::npos)
        << "rule " << rule << " did not fire; output:\n"
        << run.output;
  }
}

TEST(LintTest, ViolationFixturesPinpointTheRightLines) {
  SKIP_WITHOUT_PYTHON3();
  const LintRun run = RunLint("tests/lint_fixtures/violations");
  // Spot-check that findings carry file:line anchors, not just rule names.
  EXPECT_NE(run.output.find("missing_pragma.h:1: [pragma-once]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("stray_helper.cc:1: [test-wiring]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("tsa_escape.cc:7: [tsa-escape]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("count_guard.cc:13: [count-guard]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("env_knob.cc:6: [env-knob]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("section_id.cc:23: [section-id]"),
            std::string::npos)
      << run.output;
  // The missing file, then only the missing heading: §4.1 exists.
  EXPECT_NE(run.output.find("doc_ref.cc:4: [doc-ref] comment names "
                            "docs/NO_SUCH_FILE.md"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("doc_ref.cc:7: [doc-ref] comment cites "
                            "DESIGN.md §9.9"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("DESIGN.md §4.1,"), std::string::npos)
      << run.output;
}

TEST(LintTest, RealTreeIsClean) {
  SKIP_WITHOUT_PYTHON3();
  const LintRun run = RunLint("src/ tests/ apps/ bench/");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.find("violation"), std::string::npos) << run.output;
}

}  // namespace
