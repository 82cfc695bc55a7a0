#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace perfbench {

namespace obs = drlstream::obs;

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int64_t CounterValue(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

const obs::HistogramSnapshot* FindHistogram(const obs::MetricsSnapshot& snap,
                                            const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? nullptr : &it->second;
}

double HistogramMean(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  const obs::HistogramSnapshot* h = FindHistogram(snap, name);
  return h == nullptr ? 0.0 : h->Mean();
}

int64_t HistogramCount(const obs::MetricsSnapshot& snap,
                       const std::string& name) {
  const obs::HistogramSnapshot* h = FindHistogram(snap, name);
  return h == nullptr ? 0 : h->count;
}

double HistogramSum(const obs::MetricsSnapshot& snap,
                    const std::string& name) {
  const obs::HistogramSnapshot* h = FindHistogram(snap, name);
  return h == nullptr ? 0.0 : h->sum;
}

double HistogramPercentile(const obs::MetricsSnapshot& snap,
                           const std::string& name, double pct) {
  const obs::HistogramSnapshot* h = FindHistogram(snap, name);
  if (h == nullptr || h->count == 0) return 0.0;
  const double target = pct / 100.0 * static_cast<double>(h->count);
  double seen = 0.0;
  for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    const double in_bucket = static_cast<double>(h->buckets[b]);
    if (in_bucket <= 0.0) continue;
    if (seen + in_bucket >= target) {
      const double lo = b == 0 ? 0.0 : obs::Histogram::BucketUpperBound(b - 1);
      double hi = obs::Histogram::BucketUpperBound(b);
      if (!std::isfinite(hi)) hi = h->max;
      const double frac = (target - seen) / in_bucket;
      return std::clamp(lo + frac * (hi - lo), h->min, h->max);
    }
    seen += in_bucket;
  }
  return h->max;
}

void EnableObs(bool on) {
  obs::SetMetricsEnabled(on);
  obs::SetTraceEnabled(on);
}

std::string ExportObs(const Options& options) {
  ::mkdir(options.out_dir.c_str(), 0755);
  const std::string base = options.out_dir + "/" + options.workload;
  const std::string metrics_path = base + ".metrics.json";
  const std::string trace_path = base + ".trace.json";
  const bool metrics_ok = obs::WriteTextFile(
      metrics_path, obs::ToJson(obs::MetricsRegistry::Get().Snapshot()));
  const bool trace_ok = obs::Tracer::Get().WriteJson(trace_path);
  return "obs export: " + (metrics_ok ? metrics_path : "(metrics failed)") +
         ", " + (trace_ok ? trace_path : "(trace failed)");
}

std::string Digest(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
