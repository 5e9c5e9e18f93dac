// test_lint: the ctest gate on the memory-ordering discipline
// (DESIGN.md §9). Three layers:
//   1. the fixture corpus under tests/lint_fixtures/ — each bad_*.hpp
//      seeds exactly one violation of one rule, suppressed.hpp exercises
//      the suppression annotation;
//   2. the clean gate — the real include/ tree at HEAD must produce zero
//      findings, so every seq_cst site keeps its contract forever;
//   3. the --json report — emit and re-load round-trip, including escape
//      handling, plus annotation-window edge cases fed via scan_source.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/model.hpp"
#include "lint/report.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "test_check.hpp"

namespace fs = std::filesystem;
using namespace mwllsc::lint;

namespace {

#ifndef MWLLSC_LINT_FIXTURE_DIR
#error "tests/CMakeLists.txt must define MWLLSC_LINT_FIXTURE_DIR"
#endif
#ifndef MWLLSC_LINT_INCLUDE_DIR
#error "tests/CMakeLists.txt must define MWLLSC_LINT_INCLUDE_DIR"
#endif

LintResult lint_path(const std::string& path) {
  LintResult r;
  SourceFile src = load_file(path);
  CHECK(src.ok);
  FileModel m = build_model(std::move(src));
  run_rules(m, &r);
  return r;
}

LintResult lint_text(const std::string& text) {
  LintResult r;
  FileModel m = build_model(scan_source("mem.hpp", text));
  run_rules(m, &r);
  return r;
}

void expect_single(const char* file, const char* rule) {
  const LintResult r =
      lint_path(std::string(MWLLSC_LINT_FIXTURE_DIR) + "/" + file);
  if (r.findings.size() != 1 ||
      r.findings[0].rule != rule) {
    std::fprintf(stderr, "fixture %s: want exactly one %s, got:\n", file,
                 rule);
    print_findings(r, stderr);
    std::abort();
  }
  CHECK_EQ(r.suppressed, 0);
}

void test_fixture_corpus() {
  expect_single("bad_r1.hpp", "R1");
  // The protocols reach memory through a policy's Atomic<T>; the lint must
  // still see such a declaration, or operator sugar on it goes unflagged.
  expect_single("bad_r1_policy.hpp", "R1");
  expect_single("bad_r2.hpp", "R2");
  expect_single("obs/bad_r3.hpp", "R3");
  expect_single("bad_r4.hpp", "R4");
  expect_single("bad_r5.hpp", "R5");
  expect_single("bad_r5_slot.hpp", "R5");

  // The suppressed fixture has a real R1 under a suppression annotation:
  // zero findings, and the suppression is accounted for.
  const LintResult r =
      lint_path(std::string(MWLLSC_LINT_FIXTURE_DIR) + "/suppressed.hpp");
  CHECK(r.findings.empty());
  CHECK_EQ(r.suppressed, 1);
}

// The whole point of the gate: the shipped headers stay clean, so any new
// unargued seq_cst (or unpadded shared atomic, or defaulted order) fails
// ctest, not just CI.
void test_include_tree_clean() {
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(MWLLSC_LINT_INCLUDE_DIR), end;
       it != end; ++it) {
    if (it->is_regular_file() &&
        it->path().extension().string() == ".hpp") {
      files.push_back(it->path().generic_string());
    }
  }
  CHECK(files.size() >= 20);  // the tree is really there

  LintResult all;
  for (const std::string& f : files) {
    SourceFile src = load_file(f);
    CHECK(src.ok);
    FileModel m = build_model(std::move(src));
    run_rules(m, &all);
  }
  if (!all.findings.empty()) {
    std::fprintf(stderr, "include/ must lint clean at HEAD:\n");
    print_findings(all, stderr);
    std::abort();
  }
  CHECK_EQ(all.files, static_cast<int>(files.size()));
}

void test_annotation_window() {
  // A contract on the line just above binds...
  const char* near_contract =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(window check)\n"
      "    a.store(1, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  CHECK(lint_text(near_contract).findings.empty());

  // ...kAnnotationWindow lines above still binds...
  const char* boundary =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(exactly kAnnotationWindow away)\n"
      "    int x = 0;\n"
      "    int y = 1;\n"
      "    a.store(x + y, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  CHECK(lint_text(boundary).findings.empty());

  // ...but one line further is out of range: the access loses its
  // contract AND the contract goes stale — two findings, both R2.
  const char* too_far =
      "struct alignas(64) S {\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-ordering: seq_cst(one line too far)\n"
      "    int x = 0;\n"
      "    int y = 1;\n"
      "    int z = 2;\n"
      "    a.store(x + y + z, std::memory_order_seq_cst);\n"
      "  }\n"
      "};\n";
  const LintResult far = lint_text(too_far);
  CHECK_EQ(far.findings.size(), 2u);
  CHECK(far.findings[0].rule == "R2");
  CHECK(far.findings[1].rule == "R2");
}

void test_suppress_multiple_rules() {
  const char* multi =
      "struct S {\n"
      "  // mwllsc-lint-suppress(R1, R5: fixture, both rules at once)\n"
      "  std::atomic<int> a{0};\n"
      "  void f() {\n"
      "    // mwllsc-lint-suppress(R1: and the access too)\n"
      "    a.fetch_add(1);\n"
      "  }\n"
      "};\n";
  const LintResult r = lint_text(multi);
  CHECK(r.findings.empty());
  CHECK_EQ(r.suppressed, 2);
}

void test_json_round_trip() {
  LintResult orig;
  orig.files = 3;
  orig.suppressed = 2;
  Finding f;
  f.file = "include/mwllsc/core/\"quoted\".hpp";
  f.line = 42;
  f.line_end = 44;
  f.rule = "R2";
  f.message = "seq_cst access with\nno contract\tat all";
  f.hint = "add 'mwllsc-ordering: seq_cst(...)' \\ nearby";
  f.snippet = "a.store(v, std::memory_order_seq_cst);";
  orig.findings.push_back(f);
  f.file = "bench/bench_common.hpp";
  f.line = 7;
  f.line_end = 7;
  f.rule = "R1";
  f.message = "defaulted order";
  f.hint = "";
  f.snippet = "";
  orig.findings.push_back(f);

  const std::string json = report_json(orig);
  CHECK(json.find("\"tool\": \"mwllsc_lint\"") != std::string::npos);
  CHECK(json.find("\"schema_version\": 1") != std::string::npos);

  LintResult back;
  std::string err;
  CHECK(load_report_json(json, &back, &err));
  CHECK_EQ(back.files, orig.files);
  CHECK_EQ(back.suppressed, orig.suppressed);
  CHECK_EQ(back.findings.size(), orig.findings.size());
  for (std::size_t i = 0; i < orig.findings.size(); ++i) {
    CHECK(back.findings[i].file == orig.findings[i].file);
    CHECK_EQ(back.findings[i].line, orig.findings[i].line);
    CHECK(back.findings[i].rule == orig.findings[i].rule);
    CHECK(back.findings[i].message == orig.findings[i].message);
    CHECK(back.findings[i].hint == orig.findings[i].hint);
    CHECK(back.findings[i].snippet == orig.findings[i].snippet);
  }

  // Not-a-report input is rejected, not half-parsed.
  LintResult junk;
  CHECK(!load_report_json("{\"tool\": \"other\"}", &junk, &err));
}

}  // namespace

int main() {
  test_fixture_corpus();
  test_include_tree_clean();
  test_annotation_window();
  test_suppress_multiple_rules();
  test_json_round_trip();
  std::printf("test_lint: all checks passed\n");
  return 0;
}
