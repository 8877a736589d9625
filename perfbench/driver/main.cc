// perfbench_driver: runs one benchmark workload and writes its result
// as one JSON object (see perfbench/README.md).
//
//   perfbench_driver --workload serve-zipf --seed 1 --seconds 15
//       --trace 0 --out result.json [--trace-out spans.jsonl]
//   perfbench_driver --list-metrics

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/workloads.h"
#include "util/parse.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i].second;
    out += (i ? ", " : "") + Quote(metrics[i].first) + ": {\"value\": " +
           (m.value ? Number(*m.value) : "null") +
           ", \"unit\": " + Quote(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

std::string ResultJson(const RunConfig& config, const RunResult& r) {
  const char* threads = std::getenv("AUTOVIEW_THREADS");
  std::string out = "{";
  out += "\"workload\": " + Quote(config.workload);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + Number(config.seconds);
  out += std::string(", \"trace\": ") + (config.trace ? "true" : "false");
  out += ", \"context\": {\"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out += ", \"compiler\": " + Quote(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out += ", \"compiler\": " + Quote(std::string("gcc ") + __VERSION__);
#else
  out += ", \"compiler\": \"unknown\"";
#endif
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"autoview_threads\": " +
         Quote(threads != nullptr ? threads : "unset");
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"clients\": " + std::to_string(r.clients);
  out += ", \"rounds\": " + std::to_string(r.rounds_run);
  out += ", \"requests\": " + std::to_string(r.requests) + "}";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + Quote(r.errors[i]);
  }
  out += "], \"end_to_end\": " + MetricsJson(r.end_to_end);
  out += ", \"per_layer\": " + MetricsJson(r.per_layer);
  out += ", \"fingerprint\": {\"cpu_units\": " +
         Number(r.fingerprint.cpu_units) +
         ", \"views_selected\": " +
         std::to_string(r.fingerprint.views_selected) +
         ", \"utility\": " + Number(r.fingerprint.utility) +
         ", \"repeat_share\": " + Number(r.fingerprint.repeat_share) + "}";
  out += ", \"rounds\": {";
  for (size_t i = 0; i < r.rounds.size(); ++i) {
    out += (i ? ", " : "") + Quote(r.rounds[i].first) + ": [";
    for (size_t j = 0; j < r.rounds[i].second.size(); ++j) {
      out += (j ? ", " : "") + Number(r.rounds[i].second[j]);
    }
    out += "]";
  }
  out += "}, \"layers\": {";
  bool first = true;
  for (const auto& [name, times] : r.layers) {
    out += (first ? "" : ", ") + Quote(name) +
           ": {\"count\": " + std::to_string(times.duration_ms.size()) +
           ", \"total_ms\": " + Number(times.total_ms) +
           ", \"self_ms\": " + Number(times.self_ms) + "}";
    first = false;
  }
  return out + "}}\n";
}

/// True when `metrics` carries exactly `declared`, in order, with the
/// declared units: the names --list-metrics prints are the ones a run
/// reports.
bool MatchesDeclared(
    const std::vector<std::pair<std::string, Metric>>& metrics,
    const std::vector<std::pair<std::string, std::string>>& declared) {
  if (metrics.size() != declared.size()) return false;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (metrics[i].first != declared[i].first ||
        metrics[i].second.unit != declared[i].second) {
      return false;
    }
  }
  return true;
}

void PrintMetricNames() {
  for (const auto& [name, unit] : EndToEndMetricNames()) {
    std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
  }
  for (const auto& [name, unit] : PerLayerMetricNames()) {
    std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
  }
  for (const std::string& name : WorkloadNames()) {
    std::printf("workload %s\n", name.c_str());
  }
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --seconds S --trace 0|1 --out FILE "
               "[--trace-out FILE] | --list-metrics\n",
               why.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string out_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      PrintMetricNames();
      return 0;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!autoview::ParseUint64(value, &config.seed).ok()) {
        return Usage("bad --seed " + value);
      }
    } else if (flag == "--seconds") {
      if (!autoview::ParseDouble(value, &config.seconds).ok() ||
          !(config.seconds > 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      config.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || out_path.empty()) {
    return Usage("--workload and --out are required");
  }
  RunResult result;
  std::string error;
  if (!RunWorkload(config, &result, &error)) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.c_str());
    return 1;
  }
  // A run that stopped at a failed set-up reports no metrics; otherwise
  // they must be the declared ones.
  const bool complete = !result.end_to_end.empty();
  if (complete &&
      (!MatchesDeclared(result.end_to_end, EndToEndMetricNames()) ||
       (config.trace &&
        !MatchesDeclared(result.per_layer, PerLayerMetricNames())))) {
    std::fprintf(stderr,
                 "perfbench_driver: reported metrics differ from "
                 "--list-metrics\n");
    return 1;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  const std::string json = ResultJson(config, result);
  const bool written = std::fputs(json.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "perfbench_driver: short write to %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
