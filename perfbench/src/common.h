// Shared plumbing of the perfbench workloads: the result record every
// workload fills, wall-clock helpers, exact percentiles, and readers for
// the obs registry snapshot.
#ifndef DRLSTREAM_PERFBENCH_COMMON_H_
#define DRLSTREAM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run artifacts (trace, registry snapshot, determinism
  /// fingerprints); run.py points it into the build directory.
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The gated end-to-end metrics (names shared by every workload).
  std::vector<Metric> end_to_end;
  /// The workload's own end-to-end figures, printed by name.
  std::vector<Metric> report;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> layers;
  /// Deterministic outputs, compared against earlier runs of the same
  /// binary on the same seed.
  std::map<std::string, std::string> fingerprint;
  /// Free-form lines printed before the result (budget tables etc.).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void AddReport(const std::string& name, double value,
                 const std::string& unit) {
    report.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Exact percentile (linear interpolation between closest ranks); 0 for an
/// empty sample.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), MB.
double PeakRssMb();

/// Repeats a set-up at least 3 times and until 0.3 s are spent (at most
/// 301 times) and returns the median. `timed_setup` builds the workload's
/// inputs and returns the seconds its build took, so tearing down the
/// previous repetition stays out of the figure.
template <typename F>
double MedianSetupSeconds(F&& timed_setup) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 0.3 && times.size() < 301)) {
    times.push_back(timed_setup());
    total += times.back();
  }
  return Median(times);
}

/// Registry readers (0 when the metric was never registered).
int64_t CounterValue(const drlstream::obs::MetricsSnapshot& snap,
                     const std::string& name);
const drlstream::obs::HistogramSnapshot* FindHistogram(
    const drlstream::obs::MetricsSnapshot& snap, const std::string& name);
double HistogramMean(const drlstream::obs::MetricsSnapshot& snap,
                     const std::string& name);
int64_t HistogramCount(const drlstream::obs::MetricsSnapshot& snap,
                       const std::string& name);
double HistogramSum(const drlstream::obs::MetricsSnapshot& snap,
                    const std::string& name);
/// Percentile estimated from the log2 buckets, interpolating linearly
/// inside the bucket and clamping to the recorded min/max.
double HistogramPercentile(const drlstream::obs::MetricsSnapshot& snap,
                           const std::string& name, double pct);

/// Turns the obs layer on (metrics + tracer) for a traced run.
void EnableObs(bool on);

/// Writes the registry snapshot and the Chrome trace under `out_dir`,
/// named after the workload. Returns a note line naming the files.
std::string ExportObs(const Options& options);

/// Hex digest of a string (FNV-1a 64), for fingerprints.
std::string Digest(const std::string& text);
/// Renders a double with all its digits (round-trippable).
std::string Exact(double value);

}  // namespace perfbench

#endif  // DRLSTREAM_PERFBENCH_COMMON_H_
