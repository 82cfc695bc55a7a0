// sim_tenants_diurnal: the stream substrate alone. One sim::ClusterSim hosts
// four tenants (CQ large, log large, WC large, CQ medium), each driven by its
// own seeded diurnal generator; every simulated minute one tenant in turn is
// migrated to its placement shifted by one machine. Single-threaded.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace drlstream;

constexpr int kTenants = 4;
constexpr double kRateScale = 0.35;
constexpr double kMinuteMs = 60000.0;
constexpr int kMinutes = 10;
constexpr double kChunkMs = 1000.0;  // timed slice of simulated time
constexpr double kSleepAfterIdleMs = 5000.0;

/// Everything one horizon needs, built from the seed.
struct SimSetup {
  topo::ClusterConfig cluster;
  std::vector<topo::App> apps;
  std::vector<std::unique_ptr<workload::WorkloadGenerator>> generators;
  std::unique_ptr<sim::ClusterSim> sim;
};

Status BuildSetup(uint64_t seed, SimSetup* setup) {
  setup->sim.reset();  // releases the old tenants before their apps go
  setup->cluster = topo::ClusterConfig();
  setup->cluster.machine.sleep_after_idle_ms = kSleepAfterIdleMs;
  topo::AppOptions app_options;
  app_options.rate_scale = kRateScale;
  setup->apps.clear();
  setup->apps.push_back(
      topo::BuildContinuousQueries(topo::Scale::kLarge, app_options));
  setup->apps.push_back(topo::BuildLogProcessing(app_options));
  setup->apps.push_back(topo::BuildWordCount(app_options));
  setup->apps.push_back(
      topo::BuildContinuousQueries(topo::Scale::kMedium, app_options));

  sim::SimOptions options;
  options.seed = seed;
  setup->sim = std::make_unique<sim::ClusterSim>(setup->cluster, options);
  setup->generators.clear();
  const int m = setup->cluster.num_machines;
  for (int t = 0; t < kTenants; ++t) {
    const topo::App& app = setup->apps[static_cast<size_t>(t)];
    const int n = app.topology.num_executors();
    const int offset = (3 * t) % m;
    sched::Schedule initial(n, m);
    initial.set_tenant(t);
    for (int j = 0; j < n; ++j) initial.Assign(j, (j + offset) % m);
    DRLSTREAM_ASSIGN_OR_RETURN(
        int tenant,
        setup->sim->AddTenant(&app.topology, &app.workload, initial));
    workload::DiurnalConfig diurnal;
    diurnal.period_ms = kMinutes * kMinuteMs;
    diurnal.amplitude = 0.4;
    // Quarter-period phase offsets keep the tenants apart; the seed moves
    // the jitter and the sim's RNG. (Seeded phases and placements made the
    // cluster's peak backlog, and with it peak memory, differ from seed to
    // seed by up to a fifth.)
    diurnal.phase_radians = 1.5707963267948966 * t;
    diurnal.steps_per_period = 40;
    diurnal.jitter = 0.05;
    diurnal.seed = seed * 31u + static_cast<uint64_t>(t);
    DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<workload::WorkloadGenerator> gen,
                               workload::MakeDiurnal(diurnal));
    DRLSTREAM_RETURN_NOT_OK(
        setup->sim->SetTenantWorkloadGenerator(tenant, gen.get()));
    setup->generators.push_back(std::move(gen));
  }
  return setup->sim->Start();
}

struct HorizonResult {
  double wall_s = 0.0;
  std::vector<double> chunk_us;    // wall us per simulated second
  std::vector<double> migrate_us;  // wall us per Migrate call
  int backlog_max = 0;             // roots in flight, sampled per chunk
  std::string fingerprint;
};

Status RunHorizon(SimSetup* setup, RunResult* result, HorizonResult* out) {
  sim::ClusterSim& sim = *setup->sim;
  const int m = setup->cluster.num_machines;
  const int chunks_per_minute = static_cast<int>(kMinuteMs / kChunkMs);
  const Clock::time_point start = Clock::now();
  for (int minute = 0; minute < kMinutes; ++minute) {
    if (minute > 0) {
      const int tenant = minute % kTenants;
      sched::Schedule target = sim.TenantSchedule(tenant);
      for (int j = 0; j < target.num_executors(); ++j) {
        target.Assign(j, (target.MachineOf(j) + 1) % m);
      }
      const Clock::time_point migrate_start = Clock::now();
      obs::WallSpan span("bench.ClusterSim.Migrate");
      DRLSTREAM_RETURN_NOT_OK(sim.Migrate(tenant, target));
      out->migrate_us.push_back(MicrosBetween(migrate_start, Clock::now()));
    }
    for (int c = 0; c < chunks_per_minute; ++c) {
      const Clock::time_point chunk_start = Clock::now();
      obs::WallSpan span("bench.ClusterSim.RunFor");
      sim.RunFor(kChunkMs);
      out->chunk_us.push_back(MicrosBetween(chunk_start, Clock::now()));
      out->backlog_max = std::max(out->backlog_max, sim.inflight_roots());
    }
  }
  out->wall_s = SecondsSince(start);

  // Output checks: per-tenant root conservation and the energy ledger.
  std::string fp;
  for (int t = 0; t < kTenants; ++t) {
    const sim::SimCounters& c = sim.TenantCounters(t);
    result->Check(c.roots_emitted == c.roots_completed + c.roots_failed +
                                         sim.TenantInflightRoots(t),
                  "sim: root conservation fails for tenant " +
                      std::to_string(t));
    result->Check(c.roots_completed > 0,
                  "sim: tenant " + std::to_string(t) + " completed nothing");
    fp += std::to_string(c.events_processed) + "," +
          std::to_string(c.roots_emitted) + "," +
          std::to_string(c.roots_completed) + "," +
          std::to_string(c.roots_failed) + "," +
          std::to_string(c.tuples_processed) + "," +
          std::to_string(c.migrations) + ";";
  }
  const topo::MachineSpec& spec = setup->cluster.machine;
  double machine_sum = 0.0;
  for (int machine = 0; machine < m; ++machine) {
    const auto b = sim.MachineEnergy(machine);
    const double expected =
        (b.active_ms * spec.active_watts + b.idle_ms * spec.idle_watts +
         (b.sleep_ms + b.down_ms) * spec.sleep_watts) /
        1000.0;
    result->Check(std::fabs(b.joules - expected) <= 1e-6 * (1.0 + expected),
                  "sim: energy ledger disagrees on machine " +
                      std::to_string(machine));
    machine_sum += b.joules;
  }
  const double total = sim.TotalJoules();
  result->Check(std::fabs(total - machine_sum) <= 1e-6 * (1.0 + machine_sum),
                "sim: TotalJoules disagrees with the machine ledgers");
  out->fingerprint = fp + Exact(total);
  return Status::OK();
}

/// Rate changes the generators emit over the horizon, walked through their
/// public op stream.
int64_t CountRateChanges(const SimSetup& setup) {
  int64_t changes = 0;
  const double horizon_ms = kMinutes * kMinuteMs;
  for (int t = 0; t < kTenants; ++t) {
    double now = 0.0;
    while (true) {
      const auto op = setup.generators[static_cast<size_t>(t)]->NextRateChange(
          t, now);
      if (!op.has_value() || op->time_ms > horizon_ms) break;
      ++changes;
      now = op->time_ms;
    }
  }
  return changes;
}

}  // namespace

RunResult RunSimTenantsDiurnal(const Options& options) {
  RunResult result;
  SimSetup setup;
  Status built = Status::OK();
  const double setup_s = MedianSetupSeconds([&] {
    setup = SimSetup();
    const Clock::time_point start = Clock::now();
    built = BuildSetup(options.seed, &setup);
    return SecondsSince(start);
  });
  result.Check(built.ok(), "sim: setup failed: " + built.ToString());
  if (!built.ok()) return result;

  // The horizon runs at least twice: the repeat re-checks determinism and
  // the reported figures are medians over the repeats.
  std::vector<HorizonResult> runs;
  const Clock::time_point start = Clock::now();
  while (runs.size() < 2 ||
         SecondsSince(start) + runs.back().wall_s < options.seconds) {
    if (!runs.empty()) {
      built = BuildSetup(options.seed, &setup);
      result.Check(built.ok(), "sim: setup failed: " + built.ToString());
      if (!built.ok()) return result;
    }
    HorizonResult run;
    const Status status = RunHorizon(&setup, &result, &run);
    result.Check(status.ok(), "sim: " + status.ToString());
    if (!status.ok()) return result;
    result.Check(runs.empty() || run.fingerprint == runs[0].fingerprint,
                 "determinism: repeated horizon gave different counters");
    runs.push_back(std::move(run));
  }

  std::vector<double> walls, chunk_p50, chunk_p98;
  for (const HorizonResult& run : runs) {
    walls.push_back(run.wall_s);
    chunk_p50.push_back(Percentile(run.chunk_us, 50));
    chunk_p98.push_back(Percentile(run.chunk_us, 98));
  }
  const sim::SimCounters& total = setup.sim->counters();
  const double wall_s = Median(walls);
  result.attempted = total.roots_emitted;
  result.failed = total.roots_failed;
  result.fingerprint["counters"] = runs[0].fingerprint;

  result.AddReport("sim_tuples_per_s",
                   static_cast<double>(total.tuples_processed) / wall_s,
                   "tuples/s");
  result.AddReport("sim_horizon_wall_s", wall_s, "s");
  result.AddReport("sim_roots_emitted",
                   static_cast<double>(total.roots_emitted), "count");
  result.AddReport("sim_backlog_max", runs[0].backlog_max, "roots");
  result.AddReport("sim_horizons", static_cast<double>(runs.size()), "count");
  result.AddReport("sim_second_p50_us", Median(chunk_p50), "us");
  // 600 samples a horizon: p98 is the highest with ten beyond it.
  result.AddReport("sim_second_p98_us", Median(chunk_p98), "us");

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"run_s", wall_s, "s"},
      {"op_p50_us", Median(chunk_p50), "us"},
  };

  if (options.trace) {
    obs::MetricsRegistry::Get().ResetValues();
    built = BuildSetup(options.seed, &setup);
    result.Check(built.ok(), "sim: setup failed: " + built.ToString());
    if (!built.ok()) return result;
    EnableObs(true);
    HorizonResult traced;
    const Status status = RunHorizon(&setup, &result, &traced);
    EnableObs(false);
    result.Check(status.ok(), "sim (traced): " + status.ToString());
    result.Check(traced.fingerprint == runs[0].fingerprint,
                 "determinism: tracing changed the simulation");
    const sim::SimCounters& c = setup.sim->counters();
    result.AddLayer("sim.run_ms_per_sim_s", Mean(runs[0].chunk_us) / 1000.0,
                    "ms");
    result.AddLayer("sim.events", static_cast<double>(c.events_processed),
                    "count");
    result.AddLayer("sim.events_per_s",
                    static_cast<double>(c.events_processed) / runs[0].wall_s,
                    "1/s");
    result.AddLayer("sim.backlog_max", runs[0].backlog_max, "count");
    result.AddLayer("sim.migrate_us", Mean(runs[0].migrate_us), "us");
    result.AddLayer("workload.rate_changes",
                    static_cast<double>(CountRateChanges(setup)), "count");
    result.AddLayer("obs.overhead_pct",
                    100.0 * (traced.wall_s - wall_s) / wall_s, "%");
    result.notes.push_back(ExportObs(options));
  }
  return result;
}

}  // namespace perfbench
