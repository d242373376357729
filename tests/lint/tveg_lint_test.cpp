// tveg-lint rule tests: each corpus fixture is pinned to its exact rule-id
// finding (file + line), inline snippets cover the scoping/suppression
// corners, and the clean fixture + the lint.clean_tree ctest keep the real
// tree honest.
#include "tools/lint/rules.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tveg::lint {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(TVEG_LINT_CORPUS_DIR) + "/" + name;
}

std::string read_corpus(const std::string& name) {
  std::ifstream in(corpus_path(name), std::ios::binary);
  EXPECT_TRUE(in) << "missing corpus fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct PinnedFixture {
  const char* file;
  const char* rule;
  long line;
};

TEST(TvegLint, CorpusFixturesPinExactFindings) {
  const std::vector<PinnedFixture> fixtures = {
      {"bad_no_unseeded_rng.cpp", "no-unseeded-rng", 8},
      {"bad_no_wall_clock.cpp", "no-wall-clock", 8},
      {"bad_unchecked_result.cpp", "unchecked-result", 8},
      {"bad_metrics_key.cpp", "metrics-key", 8},
      {"bad_no_float.cpp", "no-float", 8},
      {"bad_no_core_include_in_certify.cpp", "no-core-include-in-certify",
       8},
      {"bad_no_map_in_hot_path.hpp", "no-map-in-hot-path", 8},
      {"bad_no_adhoc_timer.cpp", "no-adhoc-timer", 8},
  };
  for (const auto& fixture : fixtures) {
    const auto findings =
        lint_source(fixture.file, read_corpus(fixture.file));
    ASSERT_EQ(findings.size(), 1u)
        << fixture.file << ": expected exactly one finding, got "
        << findings.size();
    EXPECT_EQ(findings[0].rule, fixture.rule) << fixture.file;
    EXPECT_EQ(findings[0].line, fixture.line) << fixture.file;
  }
}

TEST(TvegLint, CleanFixtureHasNoFindings) {
  const auto findings = lint_source("clean.cpp", read_corpus("clean.cpp"));
  for (const auto& finding : findings) ADD_FAILURE() << to_string(finding);
}

TEST(TvegLint, HeaderIsolationFlagsNonSelfContainedHeader) {
  Options options;
  options.compiler = "c++";
  const auto findings = lint_header_isolation(
      corpus_path("bad_header_not_self_contained.hpp"), options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-not-self-contained");
}

TEST(TvegLint, CommentsAndStringsDoNotTrigger) {
  const std::string text =
      "// std::rand() and system_clock in a comment\n"
      "/* float acc; srand(1); */\n"
      "const char* doc = \"random_device, time( and float\";\n";
  EXPECT_TRUE(lint_source("doc.cpp", text).empty());
}

TEST(TvegLint, SuppressionCommentSilencesOneLine) {
  const std::string bad = "int x = rand();\n";
  ASSERT_EQ(lint_source("s.cpp", bad).size(), 1u);
  const std::string ok =
      "int x = rand();  // tveg-lint: allow(no-unseeded-rng)\n";
  EXPECT_TRUE(lint_source("s.cpp", ok).empty());
}

TEST(TvegLint, RngFilesAreExemptAndWallClockHasNoExemption) {
  EXPECT_TRUE(
      lint_source("src/support/rng.cpp", "auto d = std::random_device{};\n")
          .empty());
  EXPECT_EQ(
      lint_source("src/fault/plan.cpp", "auto d = std::random_device{};\n")
          .size(),
      1u);
  // Budgets read steady_clock only; a wall-clock read is a finding even in
  // the budget header.
  const auto findings = lint_source(
      "src/support/budget.hpp", "auto t = std::chrono::system_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-wall-clock");
}

TEST(TvegLint, SteadyClockIsAllowed) {
  // steady_clock is never a wall-clock read; in solver code it is only an
  // ad-hoc timer (no-adhoc-timer), and obs/ and support/ may read it freely.
  const auto findings = lint_source(
      "src/core/eedcb.cpp", "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-adhoc-timer");
  EXPECT_TRUE(lint_source("src/support/thread_pool.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(TvegLint, AdhocTimerFlaggedInSolverCodeOnly) {
  const std::string alias_read = "const auto start = Clock::now();\n";
  auto findings = lint_source("/repo/src/sim/monte_carlo.cpp", alias_read);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-adhoc-timer");
  // The timing layers and the tools own the clock; tests and benches are
  // outside src/.
  EXPECT_TRUE(lint_source("/repo/src/obs/span.cpp", alias_read).empty());
  EXPECT_TRUE(lint_source("src/support/watchdog.cpp", alias_read).empty());
  EXPECT_TRUE(lint_source("src/tools/certify/main.cpp", alias_read).empty());
  EXPECT_TRUE(lint_source("/repo/tests/obs/overhead_test.cpp", alias_read)
                  .empty());
  EXPECT_TRUE(lint_source("/repo/bench/timing.hpp", alias_read).empty());
  // Naming the type is enough; several hits on one line are one finding.
  findings = lint_source(
      "src/core/eedcb.hpp",
      "using Clock = std::chrono::steady_clock;\n"
      "auto d = std::chrono::steady_clock::now() - Clock::now();\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_TRUE(
      lint_source("src/core/eedcb.cpp",
                  "auto t = Clock::now();  // tveg-lint: allow(no-adhoc-timer)\n")
          .empty());
}

TEST(TvegLint, GuardedResultAccessIsClean) {
  const std::string guarded =
      "double f(const support::Result<double>& r) {\n"
      "  if (!r.ok()) return 0;\n"
      "  return r.value();\n"
      "}\n";
  EXPECT_TRUE(lint_source("g.cpp", guarded).empty());
  const std::string moved =
      "double f(support::Result<double> r) {\n"
      "  if (!r.ok()) return 0;\n"
      "  return std::move(r).value();\n"
      "}\n";
  EXPECT_TRUE(lint_source("m.cpp", moved).empty());
}

TEST(TvegLint, MetricKeyLiteralsAreValidatedAcrossLineBreaks) {
  const std::string wrapped =
      "void f(obs::MetricsRegistry& r) {\n"
      "  r.counter(\n"
      "      \"bogus.wrapped.key\").add(1);\n"
      "}\n";
  const auto findings = lint_source("w.cpp", wrapped);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metrics-key");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(TvegLint, ConcatenatedMetricKeyPrefixPasses) {
  const std::string dynamic =
      "void f(obs::MetricsRegistry& r, const std::string& s) {\n"
      "  r.counter(\"tveg.pool.worker\" + s).add(1);\n"
      "}\n";
  EXPECT_TRUE(lint_source("d.cpp", dynamic).empty());
}

TEST(TvegLint, SpanFixturePinsBothWallClockRules) {
  // The fixture's filename contains "span", so its system_clock read is hit
  // by the base rule AND the scoped variant, on the same line.
  const auto findings =
      lint_source("bad_no_wall_clock_in_spans.cpp",
                  read_corpus("bad_no_wall_clock_in_spans.cpp"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-wall-clock");
  EXPECT_EQ(findings[0].line, 10);
  EXPECT_EQ(findings[1].rule, "no-wall-clock-in-spans");
  EXPECT_EQ(findings[1].line, 10);
}

TEST(TvegLint, SteadyClockIsAllowedInSpanFilesOnly) {
  // Span-scoped files may read steady_clock (trace timestamps must be
  // monotone)...
  EXPECT_TRUE(lint_source("src/obs/span.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  // ...but flight-recorder files must not touch <chrono> at all: dumps are
  // byte-stable, so payloads carry logical sequence numbers only.
  const auto findings =
      lint_source("src/obs/flight_recorder.cpp",
                  "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_FALSE(findings.empty());
  for (const auto& f : findings)
    EXPECT_EQ(f.rule, "no-wall-clock-in-spans") << to_string(f);
}

TEST(TvegLint, FlightRecorderScopeHonorsSuppressions) {
  const std::string ok =
      "#include <chrono>  // tveg-lint: allow(no-wall-clock-in-spans)\n";
  EXPECT_TRUE(lint_source("src/obs/flight_recorder.hpp", ok).empty());
}

TEST(TvegLint, RuleIdsAreStable) {
  const std::vector<std::string> expected = {
      "no-unseeded-rng", "no-wall-clock",          "unchecked-result",
      "metrics-key",     "no-float",               "header-not-self-contained",
      "no-wall-clock-in-spans",                    "no-unbudgeted-pool-loop",
      "no-core-include-in-certify",                "no-map-in-hot-path",
      "no-adhoc-timer",
  };
  EXPECT_EQ(rule_ids(), expected);
}

TEST(TvegLint, MapInHotPathFlaggedInHotHeadersOnly) {
  const std::string map_member =
      "struct S { std::unordered_map<int, double> cache_; };\n";
  const std::string nested_vector =
      "struct S { std::vector<std::vector<double>> rows_; };\n";
  // Hot-path headers: src/graph/ and the aux-graph header.
  auto findings = lint_source("src/graph/steiner.hpp", map_member);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-map-in-hot-path");
  EXPECT_EQ(lint_source("src/core/aux_graph.hpp", nested_vector).size(), 1u);
  // Out of scope: .cpp files (query-local scratch is fine), non-hot layers.
  EXPECT_TRUE(lint_source("src/graph/steiner.cpp", map_member).empty());
  EXPECT_TRUE(lint_source("src/core/solve_many.hpp", map_member).empty());
  EXPECT_TRUE(lint_source("src/support/config.hpp", nested_vector).empty());
  // Flat containers in scope stay clean.
  EXPECT_TRUE(lint_source("src/graph/digraph.hpp",
                          "struct S { std::vector<double> dist_;\n"
                          "  std::vector<std::pair<double, int>> heap_; };\n")
                  .empty());
  // Suppressible like every other rule, with a defending comment.
  const std::string allowed =
      "struct S { std::unordered_map<int, double> memo_; };"
      "  // cold-path memo; tveg-lint: allow(no-map-in-hot-path)\n";
  EXPECT_TRUE(lint_source("src/graph/steiner.hpp", allowed).empty());
}

TEST(TvegLint, UnbudgetedPoolLoopFlaggedInSolverLayersOnly) {
  const std::string bare =
      "void f() { pool.parallel_for(0, n, [&](std::size_t i) { w(i); }); }\n";
  // Solver layers: flagged.
  const auto findings = lint_source("src/core/hot.cpp", bare);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-unbudgeted-pool-loop");
  // support/ hosts the mechanism itself and stays out of scope.
  EXPECT_TRUE(lint_source("src/support/thread_pool.cpp", bare).empty());
  // A visible cancel token (or budget poll) in the call region is clean.
  const std::string tokened =
      "void f() { pool.parallel_for(0, n, body, budget.cancel); }\n";
  EXPECT_TRUE(lint_source("src/graph/hot.cpp", tokened).empty());
  const std::string polled =
      "void f() { pool.parallel_for(0, n, [&](std::size_t i) {\n"
      "  options.budget.check(\"hot\"); w(i); }); }\n";
  EXPECT_TRUE(lint_source("src/sim/hot.cpp", polled).empty());
  // Suppressible like every other rule (allow comments are per-line).
  const std::string allowed =
      "void f() { pool.parallel_for(0, n, body); }"
      "  // tveg-lint: allow(no-unbudgeted-pool-loop)\n";
  EXPECT_TRUE(lint_source("src/nlp/hot.cpp", allowed).empty());
}

TEST(TvegLint, AuditFlagsStaleAndUnknownSuppressionsOnly) {
  const auto findings =
      audit_file_suppressions("bad_stale_suppression.cpp",
                              read_corpus("bad_stale_suppression.cpp"));
  ASSERT_EQ(findings.size(), 2u);
  // Line 8: allow(no-wall-clock) with nothing wall-clock on the line.
  EXPECT_EQ(findings[0].rule, "stale-suppression");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("no-wall-clock"), std::string::npos);
  // Line 9: allow(no-such-rule) names a rule tveg-lint does not have.
  EXPECT_EQ(findings[1].rule, "stale-suppression");
  EXPECT_EQ(findings[1].line, 9);
  EXPECT_NE(findings[1].message.find("no-such-rule"), std::string::npos);
  // The live allow(no-unseeded-rng) on line 12 produced no third finding.
}

TEST(TvegLint, AuditPassesLoadBearingSuppressions) {
  const std::string live =
      "int f() { return rand(); }  // tveg-lint: allow(no-unseeded-rng)\n";
  EXPECT_TRUE(audit_file_suppressions("s.cpp", live).empty());
  // header-not-self-contained pragmas sit at file scope, not on a finding
  // line, so the per-line audit exempts them rather than cry stale.
  const std::string header_pragma =
      "// tveg-lint: allow(header-not-self-contained)\n";
  EXPECT_TRUE(audit_file_suppressions("h.hpp", header_pragma).empty());
}

TEST(TvegLint, CoreIncludeFlaggedOnlyInCertifyScope) {
  const std::string bad = "#include \"core/eedcb.hpp\"\n";
  // Certifier sources: flagged, for both solver layers and DTS headers.
  EXPECT_EQ(lint_source("src/tools/certify/certify.cpp", bad).size(), 1u);
  EXPECT_EQ(lint_source("src/tools/certify/certify.cpp",
                        "#include \"tvg/dts.hpp\"\n")
                .size(),
            1u);
  // Allowed dependency set: clean.
  EXPECT_TRUE(lint_source("src/tools/certify/certify.cpp",
                          "#include \"support/math.hpp\"\n"
                          "#include \"trace/contact_trace.hpp\"\n"
                          "#include \"channel/radio.hpp\"\n"
                          "#include \"tvg/types.hpp\"\n"
                          "#include \"tools/certify/certify.hpp\"\n")
                  .empty());
  // Outside the certifier (and in its own tests, which legitimately drive
  // the solvers): not flagged.
  EXPECT_TRUE(lint_source("src/core/eedcb.cpp", bad).empty());
  EXPECT_TRUE(
      lint_source("tests/certify/certify_sweep_test.cpp", bad).empty());
  // Suppressible like every other rule.
  EXPECT_TRUE(
      lint_source("src/tools/certify/certify.cpp",
                  "#include \"core/eedcb.hpp\"  "
                  "// tveg-lint: allow(no-core-include-in-certify)\n")
          .empty());
}

}  // namespace
}  // namespace tveg::lint
