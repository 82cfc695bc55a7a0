// train_cq_large: the paper's reproduction job at a reduced budget. Trains
// all four methods on the large continuous-queries topology through
// core::TrainAllMethods (never the artifact cache), then deploys each final
// schedule through core::MeasureLatencySeries, as bench/summary_table does.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "obs/trace.h"
#include "sched/model_based.h"
#include "topo/apps.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace drlstream;

constexpr int kSamples = 150;
constexpr int kPretrain = 1200;
constexpr int kEpochs = 120;
constexpr int kThreads = 2;
constexpr int kReplaySteps = 500;

struct TrainInputs {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kLarge);
  topo::ClusterConfig cluster;
  core::PipelineConfig config;
};

void BuildInputs(uint64_t seed, TrainInputs* in) {
  bench::BenchOptions options;
  options.samples = kSamples;
  options.pretrain = kPretrain;
  options.epochs = kEpochs;
  options.seed = seed;
  in->config = options.ToPipelineConfig();
}

struct TrainOutputs {
  double train_wall_s = 0.0;
  double default_ms = 0.0;
  double model_ms = 0.0;
  double dqn_ms = 0.0;
  double ac_ms = 0.0;
  std::vector<double> series_ms;  // wall ms per MeasureLatencySeries call
  std::vector<double> step_us;    // replayed DDPG train steps
  int decisions = 0;
  int fallbacks = 0;
};

/// One full job: train, measure the four final schedules, replay train
/// steps. Output checks land in `result`. The registry is snapshotted into
/// `train_snap` right after training, before anything else records.
Status RunJob(const TrainInputs& in, uint64_t seed, RunResult* result,
              TrainOutputs* out, core::TrainedMethods* keep,
              obs::MetricsSnapshot* train_snap = nullptr) {
  const topo::Topology& topology = in.app.topology;
  const Clock::time_point start = Clock::now();
  core::TrainedMethods trained;
  {
    obs::WallSpan span("bench.TrainAllMethods");
    DRLSTREAM_ASSIGN_OR_RETURN(
        trained, core::TrainAllMethods(&topology, in.app.workload, in.cluster,
                                       in.config));
  }
  out->train_wall_s = SecondsSince(start);
  if (train_snap != nullptr) {
    *train_snap = obs::MetricsRegistry::Get().Snapshot();
  }

  const int n = topology.num_executors();
  const int m = in.cluster.num_machines;
  core::SeriesOptions series_options;
  series_options.seed = seed + 77;
  struct Entry {
    const char* label;
    const sched::Schedule* schedule;
    double* stabilized;
  };
  const Entry entries[] = {
      {"default", &trained.default_schedule, &out->default_ms},
      {"model-based", &trained.model_based_schedule, &out->model_ms},
      {"dqn", &trained.dqn_online.final_schedule, &out->dqn_ms},
      {"actor-critic", &trained.ddpg_online.final_schedule, &out->ac_ms},
  };
  for (const Entry& entry : entries) {
    const sched::Schedule& schedule = *entry.schedule;
    bool feasible = schedule.num_executors() == n &&
                    schedule.num_machines() == m;
    for (int i = 0; feasible && i < n; ++i) {
      feasible = schedule.MachineOf(i) >= 0 && schedule.MachineOf(i) < m;
    }
    result->Check(feasible, std::string("train: ") + entry.label +
                                " final schedule is infeasible");
    if (!feasible) continue;
    const Clock::time_point series_start = Clock::now();
    std::vector<double> series;
    {
      obs::WallSpan span("bench.MeasureLatencySeries");
      DRLSTREAM_ASSIGN_OR_RETURN(
          series, core::MeasureLatencySeries(topology, in.app.workload,
                                             in.cluster, schedule,
                                             series_options));
    }
    out->series_ms.push_back(SecondsSince(series_start) * 1000.0);
    *entry.stabilized = bench::StabilizedValue(series);
    result->Check(std::isfinite(*entry.stabilized) && *entry.stabilized > 0.0,
                  std::string("train: ") + entry.label +
                      " stabilized latency is not finite and positive");
  }

  for (const core::OnlineResult* online :
       {&trained.ddpg_online, &trained.dqn_online}) {
    out->decisions += static_cast<int>(online->rewards.size());
    for (const core::DisruptionRecord& record : online->disruptions) {
      if (record.used_fallback) ++out->fallbacks;
    }
  }

  // The unit operation of training, timed from outside: further DDPG train
  // steps on the trained agent (targets with ~32 K-NN solves, critic and
  // actor updates, soft update). Runs after every output is taken.
  for (int i = 0; i < kReplaySteps; ++i) {
    const Clock::time_point step_start = Clock::now();
    obs::WallSpan span("bench.TrainStep");
    (void)trained.ddpg->TrainStep();
    out->step_us.push_back(MicrosBetween(step_start, Clock::now()));
  }
  *keep = std::move(trained);
  return Status::OK();
}

/// Replays the model-based baseline's two steps on the run's database so
/// the traced run can attribute them (TrainAllMethods does not time them).
void ReplayModelBased(const TrainInputs& in,
                      const core::TrainedMethods& trained, RunResult* result) {
  const std::vector<sched::PerfSample> samples =
      trained.full_random_db.ToPerfSamples();
  sched::DelayModel model(&in.app.topology, &in.cluster);
  Clock::time_point start = Clock::now();
  Status fitted;
  {
    obs::WallSpan span("bench.DelayModel.Fit");
    fitted = model.Fit(samples);
  }
  const double fit_ms = SecondsSince(start) * 1000.0;
  result->Check(fitted.ok(), "train: replayed DelayModel::Fit failed");
  sched::ModelBasedScheduler scheduler(&model, in.config.model_based);
  sched::SchedulingContext context;
  context.topology = &in.app.topology;
  context.cluster = &in.cluster;
  context.spout_rates = in.app.workload.RatesVector(
      in.app.topology.SpoutComponents(), 0.0);
  start = Clock::now();
  bool searched = false;
  {
    obs::WallSpan span("bench.ModelBasedScheduler.ComputeSchedule");
    searched = scheduler.ComputeSchedule(context).ok();
  }
  const double search_ms = SecondsSince(start) * 1000.0;
  result->Check(searched, "train: replayed model-based search failed");
  result->AddLayer("sched.model_fit_ms", fit_ms, "ms");
  result->AddLayer("sched.model_search_ms", search_ms, "ms");
}

void AddTrainLayers(const obs::MetricsSnapshot& snap, const TrainOutputs& out,
                    double traced_wall_s, double untraced_wall_s,
                    RunResult* result) {
  result->AddLayer("sim.deploy_us.p50",
                   HistogramPercentile(snap, "phase.deploy_us", 50), "us");
  result->AddLayer("sim.deploy_us.p99",
                   HistogramPercentile(snap, "phase.deploy_us", 99), "us");
  result->AddLayer("core.collect_sample_us",
                   HistogramMean(snap, "offline.collect_sample_us"), "us");
  result->AddLayer("core.online_epochs",
                   static_cast<double>(CounterValue(snap, "online.epochs")),
                   "count");
  result->AddLayer("core.measure_series_ms", Mean(out.series_ms), "ms");
  result->AddLayer("rl.train_step_us.p50",
                   HistogramPercentile(snap, "rl.ddpg.train_step_us", 50),
                   "us");
  result->AddLayer("rl.train_step_us.p99",
                   HistogramPercentile(snap, "rl.ddpg.train_step_us", 99),
                   "us");
  const int64_t steps = HistogramCount(snap, "rl.ddpg.train_step_us");
  result->AddLayer("rl.train_steps", static_cast<double>(steps), "count");
  result->AddLayer("rl.train_targets_us",
                   HistogramMean(snap, "rl.ddpg.train_targets_us"), "us");
  result->AddLayer("rl.dqn_train_step_us",
                   HistogramMean(snap, "rl.dqn.train_step_us"), "us");
  result->AddLayer("nn.actor_forward_us",
                   HistogramMean(snap, "phase.actor_forward_us"), "us");
  result->AddLayer("nn.critic_score_us",
                   HistogramMean(snap, "phase.critic_score_us"), "us");
  result->AddLayer("nn.actor_update_us",
                   HistogramMean(snap, "rl.ddpg.actor_update_us"), "us");
  result->AddLayer("nn.critic_update_us",
                   HistogramMean(snap, "rl.ddpg.critic_update_us"), "us");
  result->AddLayer("nn.soft_update_us",
                   HistogramMean(snap, "rl.ddpg.soft_update_us"), "us");
  result->AddLayer("miqp.solves",
                   static_cast<double>(CounterValue(snap, "miqp.solves")),
                   "count");
  result->AddLayer("miqp.solves_per_train_step",
                   steps > 0 ? static_cast<double>(
                                   HistogramCount(snap, "phase.knn_solve_us") -
                                   HistogramCount(snap,
                                                  "phase.actor_forward_us")) /
                                   static_cast<double>(steps)
                             : 0.0,
                   "count");
  result->AddLayer("miqp.solve_us.p50",
                   HistogramPercentile(snap, "phase.knn_solve_us", 50), "us");
  result->AddLayer("miqp.solve_us.p99",
                   HistogramPercentile(snap, "phase.knn_solve_us", 99), "us");
  result->AddLayer(
      "miqp.solve_failures",
      static_cast<double>(CounterValue(snap, "miqp.solve_failures") +
                          CounterValue(snap, "rl.ddpg.knn_failures")),
      "count");
  result->AddLayer("threadpool.task_wait_us",
                   HistogramMean(snap, "threadpool.task_wait_us"), "us");
  const double overhead_pct =
      100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s;
  result->AddLayer("obs.overhead_pct", overhead_pct, "%");

  // Layer budget of the traced training run: non-overlapping top-level
  // phases, each a count x per-call time, against the traced wall time.
  const double decide_knn_us =
      static_cast<double>(HistogramCount(snap, "phase.actor_forward_us")) *
      HistogramMean(snap, "phase.knn_solve_us");
  struct Row {
    const char* layer;
    double us;
  };
  const Row rows[] = {
      {"offline collection (sim)",
       HistogramSum(snap, "offline.collect_sample_us")},
      {"online deploy (sim)", HistogramSum(snap, "phase.deploy_us")},
      {"ddpg train steps (rl/nn/miqp)",
       HistogramSum(snap, "rl.ddpg.train_step_us")},
      {"dqn train steps (rl/nn)", HistogramSum(snap, "rl.dqn.train_step_us")},
      {"ddpg decisions (nn/miqp)",
       HistogramSum(snap, "phase.actor_forward_us") +
           HistogramSum(snap, "phase.critic_score_us") + decide_knn_us},
      {"dqn decisions (nn)", HistogramSum(snap, "rl.dqn.select_action_us")},
  };
  double accounted_us = 0.0;
  const double wall_us = traced_wall_s * 1e6;
  char line[160];
  result->notes.push_back("train budget (traced run, wall " +
                          Exact(traced_wall_s) + " s):");
  for (const Row& row : rows) {
    accounted_us += row.us;
    std::snprintf(line, sizeof(line), "  %-32s %10.3f s %6.1f%%", row.layer,
                  row.us / 1e6, 100.0 * row.us / wall_us);
    result->notes.push_back(line);
  }
  std::snprintf(line, sizeof(line), "  %-32s %10.3f s %6.1f%%",
                "unattributed", (wall_us - accounted_us) / 1e6,
                100.0 * (wall_us - accounted_us) / wall_us);
  result->notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "  accounted %.1f%% of traced wall; tracing overhead %.1f%%",
                100.0 * accounted_us / wall_us, overhead_pct);
  result->notes.push_back(line);
  result->AddLayer("budget.accounted_pct", 100.0 * accounted_us / wall_us,
                   "%");
}

}  // namespace

RunResult RunTrainCqLarge(const Options& options) {
  RunResult result;
  // The pool is process configuration, made once before the timed set-up:
  // spawning its worker took either ~11 us or ~25 us depending on the
  // process, which made a median of ten runs jump by half.
  SetGlobalThreadCount(kThreads);
  TrainInputs inputs;
  const double setup_s = MedianSetupSeconds([&] {
    const Clock::time_point start = Clock::now();
    inputs = TrainInputs();
    BuildInputs(options.seed, &inputs);
    return SecondsSince(start);
  });

  TrainOutputs out;
  core::TrainedMethods trained;
  const Status status = RunJob(inputs, options.seed, &result, &out, &trained);
  result.Check(status.ok(), "train: " + status.ToString());
  result.attempted = out.decisions;
  result.failed = out.fallbacks;
  if (!status.ok()) return result;

  const double vs_default =
      100.0 * (out.default_ms - out.ac_ms) / out.default_ms;
  const double vs_model = 100.0 * (out.model_ms - out.ac_ms) / out.model_ms;
  result.AddReport("train_wall_s", out.train_wall_s, "s");
  result.AddReport("ac_latency_ms", out.ac_ms, "ms");
  result.AddReport("ac_vs_default_pct", vs_default, "%");
  result.AddReport("ac_vs_model_pct", vs_model, "%");
  result.AddReport("default_latency_ms", out.default_ms, "ms");
  result.AddReport("model_latency_ms", out.model_ms, "ms");
  result.AddReport("dqn_latency_ms", out.dqn_ms, "ms");
  result.AddReport("train_step_p50_us", Median(out.step_us), "us");
  // 500 samples: p98 is the highest percentile with ten beyond it.
  result.AddReport("train_step_p98_us", Percentile(out.step_us, 98), "us");

  result.fingerprint["default_ms"] = Exact(out.default_ms);
  result.fingerprint["model_ms"] = Exact(out.model_ms);
  result.fingerprint["dqn_ms"] = Exact(out.dqn_ms);
  result.fingerprint["ac_ms"] = Exact(out.ac_ms);

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"run_s", out.train_wall_s, "s"},
      {"op_p50_us", Median(out.step_us), "us"},
  };

  if (options.trace) {
    obs::MetricsRegistry::Get().ResetValues();
    EnableObs(true);
    TrainOutputs traced;
    core::TrainedMethods traced_methods;
    RunResult scratch;
    obs::MetricsSnapshot snap;
    const Status traced_status = RunJob(inputs, options.seed, &scratch,
                                        &traced, &traced_methods, &snap);
    ReplayModelBased(inputs, trained, &result);
    EnableObs(false);
    result.Check(traced_status.ok(),
                 "train (traced): " + traced_status.ToString());
    result.Check(traced.ac_ms == out.ac_ms,
                 "train: traced run changed the actor-critic outcome");
    AddTrainLayers(snap, traced, traced.train_wall_s, out.train_wall_s,
                   &result);
    result.notes.push_back(ExportObs(options));
  }
  return result;
}

}  // namespace perfbench
