#!/bin/sh
# Builds and runs the targeted test suites under a sanitizer.
# Generalizes the PR-2 ASan robustness script to the full matrix:
#
#   run_sanitizer_suites.sh asan    # AddressSanitizer over the
#                                   # robustness suites (error paths:
#                                   # injected faults, torn files)
#   run_sanitizer_suites.sh ubsan   # UBSan (-fno-sanitize-recover) over
#                                   # the same suites + parser/plan
#                                   # arithmetic
#   run_sanitizer_suites.sh tsan    # ThreadSanitizer over the
#                                   # concurrency suites (pool, counters,
#                                   # failpoint registry, determinism)
#
# Each mode configures its own build tree (build-<mode>-suites) so the
# primary build stays uninstrumented.
#
# Exit: 0 pass, 1 build/test failure, 2 usage,
# 77 toolchain cannot configure the instrumented build (ctest SKIP).
set -u

mode="${1:-}"
case "$mode" in
  asan)
    sanitize=address
    # view_store_test covers the WAL torn-tail/rollback and eviction
    # paths, plus the varint/shard encode-decode path and the serving
    # loop (parse/rewrite/execute) under a budget that admits no view;
    # advisor_test the streaming ingest/retire/re-index mutation paths
    # (tail renumbering, column shifts), the swap lifecycle and serving
    # through the live advisor;
    # engine_test, sort_limit_test, property_test and
    # executor_golden_test the executor, whose scans read the stored
    # tables' columns in place for the whole plan, whose bound predicate
    # terms read column slots at selected positions and whose joins and
    # aggregates gather cells by position; table_and_print_test the
    # typed columns themselves, whose string cells are offsets into a
    # character buffer that gathered columns share with the column they
    # came from; expr_test the Expr tree evaluator, which returns cells
    # by reference into the row it reads; subquery_test the extracted
    # subqueries' lifetimes (root candidates outliving their query);
    # nn_tensor_test the autograd tape's node lifetimes and Backward's
    # visit stamps; problem_index_test RLView's replay memory, whose
    # transitions share one feature matrix between consecutive steps;
    # nn_extra_test and nn_golden_test the forward GEMM, which reads raw
    # weight and activation pointers with ragged column-chunk and
    # input-block tails; traditional_test the estimator's bottom-up
    # walk, whose per-node table lists point at the plan's own table
    # names; sql_parser_test,
    # plan_test and catalog_test the front end's borrowed lifetimes
    # (tokens viewing the SQL text, plan nodes sharing column lists with
    # their children and the catalog, references into the catalog's
    # hash maps across inserts and removals); workload_core_test the
    # ground truth and Table V, which rewrite through the indexed walk's
    # interval replay (one-view indexes per candidate, one index per
    # query's assigned views).
    suites="failpoint_test deadline_test persistence_test view_store_test advisor_test rewrite_fast_path_test engine_test table_and_print_test expr_test sort_limit_test property_test executor_golden_test subquery_test nn_tensor_test nn_extra_test nn_golden_test problem_index_test traditional_test sql_parser_test plan_test catalog_test workload_core_test"
    ;;
  ubsan)
    sanitize=undefined
    suites="failpoint_test deadline_test persistence_test sql_parser_test plan_test catalog_test view_store_test advisor_test rewrite_fast_path_test engine_test table_and_print_test expr_test sort_limit_test property_test executor_golden_test subquery_test nn_tensor_test nn_extra_test nn_golden_test problem_index_test traditional_test workload_core_test"
    ;;
  tsan)
    sanitize=thread
    # subquery_test covers the chunked clusterer (parallel extraction,
    # the snapshot's parallel re-derivation of candidate plans, key-
    # index overlap); view_store_test pins/evictions/async builds
    # racing on the store; advisor_test concurrent pinned serving racing
    # generation hot swaps, and two clients that ingest, rewrite and
    # execute while their own ingests re-select and swap.
    # problem_index_test runs one thread since IterView has one trial;
    # it stays so a parallel path added to the selectors is checked.
    suites="thread_pool_test static_analysis_test parallel_determinism_test problem_index_test subquery_test view_store_test advisor_test rewrite_fast_path_test"
    ;;
  *)
    echo "usage: $0 asan|ubsan|tsan" >&2
    exit 2
    ;;
esac

root=$(CDPATH= cd -- "$(dirname "$0")/.." && pwd)
build="${AUTOVIEW_SANITIZER_BUILD_DIR:-$root/build-$mode-suites}"

mkdir -p "$build"
if ! cmake -B "$build" -S "$root" -DAUTOVIEW_SANITIZE=$sanitize \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$build/configure.log" 2>&1; then
  echo "SKIP: cannot configure a $mode build (see $build/configure.log)"
  exit 77
fi

# shellcheck disable=SC2086  # suites is a deliberate word list
if ! cmake --build "$build" --target $suites \
      -j "$(nproc 2>/dev/null || echo 4)"; then
  echo "FAIL: $mode build of the suites failed" >&2
  exit 1
fi

status=0
for t in $suites; do
  echo "== $t ($mode) =="
  if ! "$build/tests/$t"; then
    status=1
  fi
done
exit $status
