#include "driver/measure.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/random.h"

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile among n >= 1 samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(std::max(1.0, rank)), 1, n);
}

// Query ids are permuted with this fixed seed, independent of the run's.
constexpr uint64_t kPermutationSeed = 0x5EEDu;

/// Appends `count` ids of [lo, hi) to `out`, cycling through the range
/// in id order, so every id appears floor or ceil of count / (hi - lo)
/// times.
void AppendCycles(size_t count, size_t lo, size_t hi,
                  std::vector<size_t>* out) {
  const size_t width = std::max<size_t>(1, hi - lo);
  for (size_t i = 0; i < count; ++i) out->push_back(lo + i % width);
}

/// Shuffles, with Rng stream `stream` of `seed`, each run of `v` that
/// lies within one block of `block` positions and between two of the
/// ascending `cuts`.
void ShuffleBlocks(uint64_t seed, uint64_t stream, size_t block,
                   const std::vector<size_t>& cuts, std::vector<size_t>* v) {
  autoview::Rng rng(autoview::Rng::StreamSeed(seed, stream));
  block = std::max<size_t>(1, block);
  size_t next_cut = 0;
  for (size_t start = 0; start < v->size();) {
    while (next_cut < cuts.size() && cuts[next_cut] <= start) ++next_cut;
    size_t end = std::min(v->size(), (start / block + 1) * block);
    if (next_cut < cuts.size()) end = std::min(end, cuts[next_cut]);
    std::vector<size_t> run(v->begin() + start, v->begin() + end);
    rng.Shuffle(&run);
    std::copy(run.begin(), run.end(), v->begin() + start);
    start = end;
  }
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

std::optional<double> SupportedPercentile(std::vector<double> values,
                                          double p) {
  if (SamplesBeyond(values.size(), p) < kMinSamplesBeyond) return std::nullopt;
  const size_t index = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t index = NearestRank(values.size(), 50) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

std::vector<double> FastestPerItem(
    const std::vector<std::vector<double>>& series,
    std::vector<size_t>* fastest_round) {
  std::vector<double> out;
  if (fastest_round != nullptr) fastest_round->clear();
  if (series.empty()) return out;
  out.reserve(series[0].size());
  for (size_t i = 0; i < series[0].size(); ++i) {
    size_t best = 0;
    for (size_t k = 1; k < series.size(); ++k) {
      if (i < series[k].size() && series[k][i] < series[best][i]) best = k;
    }
    out.push_back(series[best][i]);
    if (fastest_round != nullptr) fastest_round->push_back(best);
  }
  return out;
}

std::vector<size_t> FixedRankPermutation(size_t num_queries) {
  std::vector<size_t> permutation(num_queries);
  std::iota(permutation.begin(), permutation.end(), size_t{0});
  autoview::Rng rng(kPermutationSeed);
  rng.Shuffle(&permutation);
  return permutation;
}

std::vector<std::vector<size_t>> ZipfStreams(
    uint64_t seed, uint64_t stream_base, size_t clients, size_t per_client,
    const std::vector<size_t>& permutation, double exponent) {
  std::vector<std::vector<size_t>> streams(clients);
  const auto n = static_cast<int64_t>(permutation.size());
  for (size_t c = 0; c < clients; ++c) {
    autoview::Rng rng(autoview::Rng::StreamSeed(seed, stream_base + c));
    streams[c].reserve(per_client);
    for (size_t i = 0; i < per_client; ++i) {
      streams[c].push_back(
          permutation[static_cast<size_t>(rng.Zipf(n, exponent))]);
    }
  }
  return streams;
}

std::vector<size_t> ChurnStream(uint64_t seed, uint64_t stream, size_t count,
                                size_t num_queries, size_t block) {
  std::vector<size_t> out;
  out.reserve(count);
  std::vector<size_t> phase_starts;
  for (size_t phase = 0; phase < 4; ++phase) {
    const size_t lo = phase * num_queries / 4;
    const size_t hi = std::max(lo + 1, (phase + 1) * num_queries / 4);
    phase_starts.push_back(out.size());
    AppendCycles((phase + 1) * count / 4 - phase * count / 4, lo, hi, &out);
  }
  ShuffleBlocks(seed, stream, block, phase_starts, &out);
  return out;
}

std::vector<size_t> CycleStream(uint64_t seed, uint64_t stream, size_t count,
                                size_t num_queries, size_t block) {
  std::vector<size_t> out;
  out.reserve(count);
  AppendCycles(count, 0, num_queries, &out);
  ShuffleBlocks(seed, stream, block, {}, &out);
  return out;
}

std::vector<std::vector<size_t>> RoundRobinStreams(uint64_t seed,
                                                   size_t clients,
                                                   size_t per_client,
                                                   size_t num_queries) {
  std::vector<std::vector<size_t>> streams(clients);
  if (num_queries == 0) return streams;
  autoview::Rng rng(seed);
  const auto start = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_queries) - 1));
  for (size_t c = 0; c < clients; ++c) {
    streams[c].reserve(per_client);
    for (size_t i = 0; i < per_client; ++i) {
      streams[c].push_back((start + i * clients + c) % num_queries);
    }
  }
  return streams;
}

std::vector<size_t> SamplePositions(uint64_t seed, uint64_t stream,
                                    size_t population, size_t k) {
  std::vector<size_t> all(population);
  std::iota(all.begin(), all.end(), size_t{0});
  if (k >= population) return all;
  autoview::Rng rng(autoview::Rng::StreamSeed(seed, stream));
  rng.Shuffle(&all);
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

double RepeatShare(const std::vector<std::vector<size_t>>& streams) {
  std::unordered_set<size_t> distinct;
  size_t total = 0;
  for (const auto& stream : streams) {
    total += stream.size();
    distinct.insert(stream.begin(), stream.end());
  }
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(distinct.size()) /
                   static_cast<double>(total);
}

}  // namespace perfbench
