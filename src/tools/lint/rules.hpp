// tveg-lint: domain-invariant checks that generic tooling cannot know.
//
// clang-tidy (scripts/lint.sh) covers the language-level bug classes; this
// checker enforces the *project* invariants that keep the reproduction
// byte-stable and the ET-law equivalence arguments valid:
//
//   no-unseeded-rng          all randomness flows through support::Rng so a
//                            single seed reproduces every experiment; a stray
//                            std::rand/random_device breaks FaultLog and
//                            Monte-Carlo determinism silently.
//   no-wall-clock            wall-clock reads (time(), system_clock, ...) are
//                            non-deterministic inputs and have no exemption;
//                            support::Budget times solves with steady_clock
//                            (allowed: it is monotonic and never feeds results).
//   unchecked-result         Result<T>::value() without a visible ok() /
//                            has_value() / !r guard nearby — the degrade
//                            ladder relies on callers branching, not asserting.
//   metrics-key              metric names must match the registered
//                            `tveg.<subsystem>.<name>` convention so exports
//                            stay machine-parsable and dashboards stable.
//   no-float                 `float` anywhere in src/: Eq. 6 cumulative replay
//                            and the Eq. 14–17 NLP accumulations require
//                            double precision; a single float truncation
//                            shifts breakpoint comparisons.
//   no-wall-clock-in-spans   span-tracing files (path contains "span") may
//                            read steady_clock but never a wall clock —
//                            exported traces must be monotone and
//                            machine-local; flight-recorder files (path
//                            contains "flight_record") may not touch
//                            <chrono> at all, because crash dumps are
//                            byte-stable for a fixed seed and therefore
//                            carry logical sequence numbers only.
//   no-adhoc-timer           a steady_clock / ::now( read under src/ outside
//                            obs/, support/ and tools/: solver code times an
//                            interval with obs::Span and reads its elapsed
//                            slot, so there is one timing path and the
//                            stats, phase tree and span rings agree.
//   header-not-self-contained  every .hpp must compile in isolation
//                            (include-what-you-use-lite, behind
//                            Options::check_headers since it shells out to
//                            the compiler).
//
// Suppression: a line containing `tveg-lint: allow(<rule-id>)` (normally in
// a trailing comment) silences that rule on that line only. Files under a
// `tools/` directory are exempt from the text rules — the linter's own rule
// tables necessarily spell the forbidden tokens.
//
// Suppressions are themselves audited: `tveg-lint --audit-suppressions`
// re-runs the text rules with every pragma ignored and reports, as
//   stale-suppression
// any allow() that no longer masks a finding of that rule on its line (the
// code was fixed or moved) or that names a rule this checker does not have.
// Stale pragmas are the rot that makes real suppressions unreviewable, so
// CI fails on them like any other finding.
#pragma once

#include <string>
#include <vector>

namespace tveg::lint {

/// One violation; `line` is 1-based.
struct Finding {
  std::string file;
  long line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  bool check_headers = false;           ///< run the isolated-compile rule
  std::string compiler = "c++";         ///< compiler for header checks
  std::vector<std::string> include_dirs;  ///< -I dirs for header checks
};

/// Every rule id this checker can emit, in documentation order.
const std::vector<std::string>& rule_ids();

/// Text rules against one file's contents; `path` drives per-file scoping
/// (e.g. support/rng.* may name random_device) and reporting.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& text);

/// Stale-suppression audit of one file: every `tveg-lint: allow(<rule>)`
/// pragma must still mask a finding of that rule on its own line.
/// (header-not-self-contained pragmas are exempt — that rule's findings
/// come from a compiler run and carry no stable line.)
std::vector<Finding> audit_file_suppressions(const std::string& path,
                                             const std::string& text);

/// audit_file_suppressions over every .hpp/.cpp under `root` (same walk as
/// lint_tree). Findings sorted by file then line.
std::vector<Finding> audit_suppressions(const std::string& root,
                                        const Options& options);

/// Isolated compilation of one header: `<compiler> -fsyntax-only -x c++`.
/// Empty result when the header is self-contained.
std::vector<Finding> lint_header_isolation(const std::string& path,
                                           const Options& options);

/// Walks `root` for .hpp/.cpp files (skipping tools/ and build dirs), runs
/// the text rules on each, and — when options.check_headers — the isolation
/// rule on each header. Findings come back sorted by file then line.
std::vector<Finding> lint_tree(const std::string& root,
                               const Options& options);

/// "file:line: [rule] message" — the canonical one-line rendering.
std::string to_string(const Finding& finding);

}  // namespace tveg::lint
