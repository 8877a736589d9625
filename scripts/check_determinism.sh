#!/bin/sh
# Repro-lint: keeps the library bit-deterministic and its concurrency
# discipline checkable. The paper's headline numbers (Eq. 3 flip
# probabilities, DQN reward = utility delta) are only reproducible when
# every stochastic draw goes through the seeded Rng and no hidden clock
# or allocator nondeterminism leaks into results, so this check fails
# the build — not a code review — when a violation appears.
#
# Thin wrapper: the rules now run inside the project-native analyzer
# `avcheck` (src/tools/), which lexes sources properly (comments and
# string literals stripped, line numbers preserved) instead of the old
# sed/awk pipeline. Rule semantics and path scoping are unchanged:
#
#   no-ambient-randomness   rand()/srand()/time()/clock()/random_device/
#                           mt19937 outside src/util/random.* — use the
#                           seeded autoview::Rng. The no-grad inference
#                           fast path is explicitly in scope.
#   no-naked-new            `new`/`delete` unless the allocation is
#                           owned on the same line (shared_ptr/
#                           unique_ptr/make_*)
#   no-cout                 std::cout in library code — use AV_LOG or
#                           return data; stdout belongs to the harnesses
#   no-raw-mutex            std::mutex / std::condition_variable outside
#                           util/annotations.h — use the annotated
#                           autoview::Mutex/CondVar
#   mutex-annotated         every Mutex member must sit within 8 lines
#                           of an AV_GUARDED_BY / AV_REQUIRES /
#                           AV_ACQUIRE user
#   engine-io-confined      raw FILE I/O inside src/engine/ is confined
#                           to view_store_log.cc — the WAL is the one
#                           place the engine touches disk
#   advisor-clock-seam      src/core/advisor.* must never read ambient
#                           time; deadlines flow exclusively through the
#                           injected autoview::Clock
#
# Exit: 0 clean, 1 violations, 77 avcheck binary not built yet.
set -u

. "$(dirname "$0")/lint_common.sh"

av_run_avcheck "determinism lint" \
  "no-ambient-randomness,no-cout,no-raw-mutex,no-naked-new,mutex-annotated,engine-io-confined,advisor-clock-seam"
