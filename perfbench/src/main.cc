// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload <train_cq_large|serve_decide|sim_tenants_diurnal>
//             --seed <n> --seconds <s> --trace <0|1>
//
// It prints the workload's own figures by name, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the gated end-to-end set; with --trace 1 the obs
// registry and tracer are on for a second pass, and the metrics are the
// per-layer set (layers a workload does not exercise read 0).

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match the "end_to_end" and "per_layer" lists in BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"run_s", "s"},
    {"op_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.run_ms_per_sim_s", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.backlog_max", "count"},
    {"sim.migrate_us", "us"},
    {"sim.deploy_us.p50", "us"},
    {"sim.deploy_us.p99", "us"},
    {"core.collect_sample_us", "us"},
    {"core.online_epochs", "count"},
    {"core.measure_series_ms", "ms"},
    {"rl.train_step_us.p50", "us"},
    {"rl.train_step_us.p99", "us"},
    {"rl.train_steps", "count"},
    {"rl.train_targets_us", "us"},
    {"rl.dqn_train_step_us", "us"},
    {"rl.decide_us.p50", "us"},
    {"rl.decide_us.p99", "us"},
    {"nn.actor_forward_us", "us"},
    {"nn.critic_score_us", "us"},
    {"nn.actor_update_us", "us"},
    {"nn.critic_update_us", "us"},
    {"nn.soft_update_us", "us"},
    {"miqp.solves", "count"},
    {"miqp.solves_per_train_step", "count"},
    {"miqp.solve_us.p50", "us"},
    {"miqp.solve_us.p99", "us"},
    {"miqp.solve_failures", "count"},
    {"sched.model_fit_ms", "ms"},
    {"sched.model_search_ms", "ms"},
    {"workload.rate_changes", "count"},
    {"ctrl.queue_wait_us.p50", "us"},
    {"ctrl.queue_wait_us.p99", "us"},
    {"ctrl.batch_width.mean", "count"},
    {"ctrl.outbox_depth.max", "count"},
    {"ctrl.requests.get_schedule", "count"},
    {"ctrl.requests.observe", "count"},
    {"net.bytes_per_decide", "B"},
    {"net.codec_us", "us"},
    {"threadpool.task_wait_us", "us"},
    {"gen.late_p99_us.lo", "us"},
    {"gen.late_p99_us.hi", "us"},
    {"gen.backlog_max.lo", "count"},
    {"gen.backlog_max.hi", "count"},
    {"obs.overhead_pct", "%"},
    {"budget.accounted_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_cq_large|serve_decide|sim_tenants_diurnal --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

/// Digest of this executable, so determinism fingerprints are compared
/// only between runs of the same build.
std::string BinaryDigest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Digest(bytes);
}

/// Compares this run's deterministic outputs with an earlier run of the
/// same binary on the same seed (recording them on first sight).
void CheckFingerprint(const Options& options, RunResult* result) {
  if (result->fingerprint.empty()) return;
  std::string text;
  for (const auto& [key, value] : result->fingerprint) {
    text += key + "=" + value + "\n";
  }
  ::mkdir(options.out_dir.c_str(), 0755);
  const std::string path = options.out_dir + "/fingerprint-" +
                           options.workload + "-" +
                           std::to_string(options.seed) + "-" +
                           BinaryDigest() + ".txt";
  std::ifstream previous(path);
  if (previous.is_open()) {
    std::stringstream earlier;
    earlier << previous.rdbuf();
    result->Check(earlier.str() == text,
                  "determinism: outputs differ from an earlier run on seed " +
                      std::to_string(options.seed) + " (" + path + ")");
    return;
  }
  std::ofstream(path) << text;
}

std::string JsonMetrics(const std::vector<Metric>& measured,
                        const MetricSpec* specs, size_t count,
                        RunResult* result) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : measured) by_name[metric.name] = &metric;
  std::string json = "{";
  for (size_t i = 0; i < count; ++i) {
    auto it = by_name.find(specs[i].name);
    const double value = it == by_name.end() ? 0.0 : it->second->value;
    if (it != by_name.end() && it->second->unit != specs[i].unit) {
      result->errors.push_back(std::string("unit mismatch for ") +
                               specs[i].name);
    }
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + Exact(value) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  return json + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be a whole number");
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds must be a positive number");
      }
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  RunResult result;
  if (options.workload == "train_cq_large") {
    result = RunTrainCqLarge(options);
  } else if (options.workload == "serve_decide") {
    result = RunServeDecide(options);
  } else if (options.workload == "sim_tenants_diurnal") {
    result = RunSimTenantsDiurnal(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  result.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  CheckFingerprint(options, &result);
  const std::string metrics =
      options.trace
          ? JsonMetrics(result.layers, kPerLayer, std::size(kPerLayer),
                        &result)
          : JsonMetrics(result.end_to_end, kEndToEnd, std::size(kEndToEnd),
                        &result);

  std::printf("# %s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const Metric& metric : result.report) {
    std::printf("%-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-28s %16.6f failed/attempted (%lld/%lld)\n", "fail_frac",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.errors.empty() ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(result.attempted, 1)),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
