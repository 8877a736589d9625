#pragma once

#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// Public surface of tools/avcheck, the project-native static analyzer.
/// It lexes and scope-parses every policed source file (no compiler
/// front end, no clang dependency) and runs two families of checks:
///
/// Semantic checks (lexer + scope tree + cross-file harvest):
///   lock-order            global acquired-before graph over nested
///                         MutexLock acquisitions and AV_EXCLUDES
///                         edges; fails on any cycle with a witness
///   blocking-under-lock   WaitIdle / ParallelFor / CondVar waits /
///                         file I/O / Materialize while a Mutex is held
///   discarded-status      expression-statement call to a function
///                         whose harvested declaration returns Status
///   atomic-ordering       every explicit memory_order_* argument must
///                         trace to an atomic declaration carrying an
///                         ordering-rationale comment (PR 3 convention)
///
/// Ported grep rules (same names and path scoping as the historical
/// shell checks, now running on the real lexer): no-naked-abort,
/// no-ambient-randomness, no-cout, no-raw-mutex, no-naked-new,
/// mutex-annotated, engine-io-confined, advisor-clock-seam.
///
/// Suppression: a finding is waived only by a comment on the same line
/// or up to 3 lines above it of the form
///   // avcheck:allow(<check-name>): <non-empty rationale>
/// The rationale text is mandatory — a bare marker does not suppress.

namespace autoview {
namespace tools {

/// One policed source file, given as repo-relative path plus contents
/// (tests feed synthetic fixtures through the same entry point).
struct SourceFile {
  std::string path;
  std::string content;
};

/// One reported violation.
struct Finding {
  std::string file;
  int line = 0;
  std::string check;    // check name, e.g. "lock-order"
  std::string message;  // human-readable detail (includes witnesses)
};

/// All check names, in report order.
std::vector<std::string> AllCheckNames();

/// Runs the named checks (empty = all) over `files` and returns the
/// surviving findings sorted by (file, line). Unknown check names are
/// an InvalidArgument error.
Result<std::vector<Finding>> RunChecks(const std::vector<SourceFile>& files,
                                       const std::vector<std::string>& checks);

/// Loads every *.h / *.cc under `<root>/src` (sorted, repo-relative
/// paths such as "src/util/status.h").
Result<std::vector<SourceFile>> LoadSourceTree(const std::string& root);

}  // namespace tools
}  // namespace autoview
