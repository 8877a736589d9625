#pragma once

// The benchmark's workloads and the run that measures one of them.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< sets the measured request count
  bool trace = false;
  std::string trace_path; ///< span dump of the traced run ("" = none)
};

/// One reported number. A percentile without enough samples beyond it
/// has no value (printed as null).
struct Metric {
  std::optional<double> value;
  std::string unit;
  size_t samples = 0;  ///< samples behind the number (1 for a count)
};

/// Counts that must repeat exactly across runs with the same seed (at
/// one advisor thread; see perfbench/README.md for online-churn).
struct Fingerprint {
  double cpu_units = 0.0;  ///< summed over the measured requests
  size_t views_selected = 0;
  double utility = 0.0;
  double repeat_share = 0.0;
};

struct RunResult {
  std::vector<std::pair<std::string, Metric>> end_to_end;
  std::vector<std::pair<std::string, Metric>> per_layer;
  std::map<std::string, LayerTimes> layers;  ///< traced run only
  /// Per-round values behind the timed end-to-end metrics.
  std::vector<std::pair<std::string, std::vector<double>>> rounds;
  Fingerprint fingerprint;
  double served_saving = 0.0;
  size_t clients = 0;
  size_t rounds_run = 0;
  size_t requests = 0;  ///< measured requests of one round
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
};

/// Names of the workloads, in the order the benchmark lists them.
std::vector<std::string> WorkloadNames();

/// The metric names and units each kind of run reports, in order.
std::vector<std::pair<std::string, std::string>> EndToEndMetricNames();
std::vector<std::pair<std::string, std::string>> PerLayerMetricNames();

/// Runs the rounds of `config.workload`: each sets it up from scratch,
/// warms it up, serves the measured request stream and verifies a
/// sample of the served requests. Returns the metrics. Fails only on an
/// unknown workload or an unwritable span file; set-up, request, ingest
/// and verification failures are counted in the result.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace perfbench
