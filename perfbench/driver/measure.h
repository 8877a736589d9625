#pragma once

// Sample statistics and seeded request streams of the benchmark driver.
// Everything here is a pure function of its arguments, so the self-tests
// (perfbench/tests/measure_test.cc) pin it down without running a
// workload.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise it is null. With n samples, p99 needs
/// n >= 1000 and p50 needs n >= 20.
constexpr size_t kMinSamplesBeyond = 10;

/// Number of samples strictly above the nearest-rank p-th percentile of
/// n samples (0 when n == 0).
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank p-th percentile of `values` (any order), or nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> SupportedPercentile(std::vector<double> values, double p);

/// Median (nearest-rank p50) of `values`, with no sample-count rule;
/// 0 for an empty vector. Used for repeated set-up timings, where a run
/// has only a handful of repetitions.
double Median(std::vector<double> values);

/// Best of repeated identical work. `series[k][i]` is the time of item
/// i (a request, or a window of requests) in round k, and item i is the
/// same work in every round. Returns each item's fastest time over the
/// rounds; `fastest_round`, when given, receives the round it came from
/// (ties go to the earlier round). Rounds whose series is shorter than
/// the first are skipped for the items they lack.
std::vector<double> FastestPerItem(
    const std::vector<std::vector<double>>& series,
    std::vector<size_t>* fastest_round = nullptr);

/// The fixed Zipf rank -> query id permutation of serve-zipf. It depends
/// only on `num_queries`, never on the run seed, so the hot set is the
/// same set of queries in every run and only the draw sequence varies.
std::vector<size_t> FixedRankPermutation(size_t num_queries);

/// Per-client Zipf(`exponent`) request streams over query ids: client c
/// draws ranks from Rng stream (stream_base + c) of `seed` and maps them
/// through `permutation`.
std::vector<std::vector<size_t>> ZipfStreams(
    uint64_t seed, uint64_t stream_base, size_t clients, size_t per_client,
    const std::vector<size_t>& permutation, double exponent);

/// One client's churn stream: the n-th of `count` requests comes from
/// the quarter [p*nq/4, (p+1)*nq/4) of the query ids, p = floor(4n/count),
/// so the active set rotates through four disjoint quarters. Within a
/// phase the requests cycle through its quarter, so every id of the
/// quarter is requested equally often (to within one). The seed then
/// shuffles each run of requests that lies in one `block` (positions
/// [b*block, (b+1)*block)) and one phase: it sets the order, but which
/// queries a block holds does not depend on it.
std::vector<size_t> ChurnStream(uint64_t seed, uint64_t stream, size_t count,
                                size_t num_queries, size_t block);

/// One client's stream that cycles through all query ids, each `block`
/// of it shuffled by the seed as in ChurnStream.
std::vector<size_t> CycleStream(uint64_t seed, uint64_t stream, size_t count,
                                size_t num_queries, size_t block);

/// Round-robin streams: the global sequence start, start+1, ... (mod
/// num_queries) dealt to `clients` in turn; `start` is drawn from `seed`.
/// When clients * per_client is a multiple of num_queries every query is
/// requested equally often.
std::vector<std::vector<size_t>> RoundRobinStreams(uint64_t seed,
                                                   size_t clients,
                                                   size_t per_client,
                                                   size_t num_queries);

/// `k` distinct positions in [0, population), ascending, drawn from Rng
/// stream `stream` of `seed` (all positions when k >= population).
std::vector<size_t> SamplePositions(uint64_t seed, uint64_t stream,
                                    size_t population, size_t k);

/// Share of requests that repeat an earlier request of the same streams:
/// 1 - distinct ids / total requests (0 for no requests).
double RepeatShare(const std::vector<std::vector<size_t>>& streams);

}  // namespace perfbench
