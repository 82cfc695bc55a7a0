// serve_decide: a CQ-large-shaped DDPG agent serving scheduling decisions
// to several masters over TCP. A ctrl::AgentServer in shared-policy mode
// runs on its own thread; one generator thread drives three connections.
// Each arrival is a kExplore GetSchedule plus an Observe, the per-epoch RPC
// mix of core::RunOnline minus TrainStep. Open-loop rungs (seeded
// exponential inter-arrivals, latency timed from when a request was due)
// give the fixed-rate figures and serve_max_rps; a closed loop of three
// synchronous masters gives the gated figures.

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/experiment.h"
#include "ctrl/agent_server.h"
#include "ctrl/messages.h"
#include "miqp/knn_solver.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "rl/ddpg_agent.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace drlstream;

constexpr int kConnections = 3;
constexpr int kPoolSize = 256;
constexpr int kKnnK = 32;
constexpr uint64_t kPolicySeed = 11;
constexpr double kLoRate = 1000.0;
constexpr double kHiRate = 6000.0;
constexpr double kLadderStep = 1.25;
constexpr int kBisections = 5;
constexpr double kP99LimitUs = 1000.0;
/// A rung whose generator issued a request this late (p99) measured the
/// generator, not the server.
constexpr double kLateLimitUs = 250.0;
/// The generator sleeps until this long before the next arrival is due and
/// spins from there. Spinning longer starves the server thread on a shared
/// box (its tail latency grows several-fold), so the spin stays short.
constexpr double kSpinUs = 80.0;
/// Outstanding decisions at which a rung is abandoned as overloaded.
constexpr int kBacklogAbort = 3000;
/// Replies owed with no reply for this long count as timeouts.
constexpr double kStallTimeoutUs = 3e6;
constexpr int kClosedDecisions = 3000;
constexpr int kClosedRepsPerGroup = 3;  // three groups

/// Pre-encoded request material, built from the seed during set-up.
struct RequestPool {
  std::vector<rl::State> states;
  std::vector<std::string> decide_frames;
  std::vector<std::string> observe_frames;
  /// The first GetSchedule reply payload seen for each entry.
  std::vector<std::string> first_reply;
};

struct Connection {
  std::unique_ptr<net::Transport> transport;
  std::string out;  // bytes not yet accepted by the socket
  size_t out_off = 0;
  struct Waiting {
    double due_us;
    int pool_index;
    bool observe;
  };
  std::deque<Waiting> waiting;  // replies owed, in request order
};

/// The agent, its server thread and the three master connections.
struct ServeSetup {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kLarge);
  topo::ClusterConfig cluster;
  std::unique_ptr<rl::StateEncoder> encoder;
  std::unique_ptr<rl::Policy> policy;
  std::unique_ptr<net::TcpListener> listener;
  std::unique_ptr<ctrl::AgentServer> server;
  std::thread server_thread;
  std::vector<Connection> connections;
  RequestPool pool;

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() { Shutdown(); }
  /// Closes the masters, stops and joins the server (idempotent).
  void Shutdown() {
    for (Connection& c : connections) {
      if (c.transport) c.transport->Close();
    }
    connections.clear();
    if (server) server->Stop();
    if (listener) listener->Close();
    if (server_thread.joinable()) server_thread.join();
  }
};

rl::State RandomState(int n, int m, const std::vector<double>& nominal,
                      Rng* rng) {
  rl::State state;
  state.assignments.resize(static_cast<size_t>(n));
  for (int& a : state.assignments) a = rng->UniformInt(0, m - 1);
  for (double rate : nominal) {
    state.spout_rates.push_back(rate * rng->Uniform(0.8, 1.7));
  }
  return state;
}

RequestPool BuildPool(uint64_t seed, int n, int m,
                      const std::vector<double>& nominal) {
  RequestPool pool;
  Rng rng(seed);
  for (int i = 0; i < kPoolSize; ++i) {
    ctrl::GetScheduleRequest request;
    request.mode = ctrl::ScheduleMode::kExplore;
    request.num_machines = m;
    request.state = RandomState(n, m, nominal, &rng);
    request.epsilon = rng.Uniform(0.0, 0.5);
    Rng explore(seed * 1000003u + static_cast<uint64_t>(i));
    (void)explore.UniformInt(0, 1);  // past the first twist, as masters are
    request.rng_state = explore.SerializeState();
    pool.decide_frames.push_back(
        net::EncodeFrame(net::MsgType::kGetScheduleRequest,
                         ctrl::EncodeGetScheduleRequest(request)));

    ctrl::ObserveRequest observe;
    observe.transition.state = request.state;
    observe.transition.action_assignments =
        RandomState(n, m, nominal, &rng).assignments;
    observe.transition.reward = -rng.Uniform(1.0, 5.0);
    observe.transition.next_state = RandomState(n, m, nominal, &rng);
    pool.observe_frames.push_back(net::EncodeFrame(
        net::MsgType::kObserveRequest, ctrl::EncodeObserveRequest(observe)));
    pool.states.push_back(std::move(request.state));
  }
  pool.first_reply.resize(kPoolSize);
  return pool;
}

Status BuildSetup(uint64_t seed, ServeSetup* s) {
  const int n = s->app.topology.num_executors();
  const int m = s->cluster.num_machines;
  s->encoder = std::make_unique<rl::StateEncoder>(
      n, m, s->app.topology.num_spouts(),
      core::NominalSpoutRate(s->app.topology, s->app.workload));
  rl::PolicyContext context;
  context.encoder = s->encoder.get();
  context.topology = &s->app.topology;
  context.cluster = &s->cluster;
  context.ddpg.knn_k = kKnnK;
  context.ddpg.seed = kPolicySeed;
  DRLSTREAM_ASSIGN_OR_RETURN(s->policy,
                             rl::PolicyRegistry::Get().Create("ddpg", context));
  DRLSTREAM_ASSIGN_OR_RETURN(s->listener,
                             net::TcpListener::Bind("127.0.0.1", 0));
  s->server = std::make_unique<ctrl::AgentServer>(s->policy.get(),
                                                  ctrl::AgentServerOptions());
  ctrl::AgentServer* server = s->server.get();
  net::TcpListener* listener = s->listener.get();
  s->server_thread =
      std::thread([server, listener] { (void)server->ServeTcp(listener); });
  for (int c = 0; c < kConnections; ++c) {
    Connection connection;
    DRLSTREAM_ASSIGN_OR_RETURN(
        connection.transport,
        net::TcpConnect("127.0.0.1", s->listener->port(), 2000));
    ctrl::HelloRequest hello;
    hello.client_name = "perfbench-master-" + std::to_string(c);
    DRLSTREAM_RETURN_NOT_OK(connection.transport->Send(net::EncodeFrame(
        net::MsgType::kHelloRequest, ctrl::EncodeHelloRequest(hello))));
    DRLSTREAM_ASSIGN_OR_RETURN(std::string raw,
                               connection.transport->Recv(5000));
    DRLSTREAM_ASSIGN_OR_RETURN(net::Frame frame, net::DecodeFrame(raw));
    DRLSTREAM_RETURN_NOT_OK(
        ctrl::DecodeHelloResponse(frame.payload).status());
    s->connections.push_back(std::move(connection));
  }
  const topo::Workload& workload = s->app.workload;
  const std::vector<double> nominal =
      workload.RatesVector(s->app.topology.SpoutComponents(), 0.0);
  s->pool = BuildPool(seed, n, m, nominal);
  return Status::OK();
}

/// What one rung measured.
struct Rung {
  double rate = 0.0;
  std::vector<double> decide_us;   // due -> GetSchedule reply
  std::vector<double> observe_us;  // due -> Observe reply
  std::vector<double> late_us;     // due -> issued
  int64_t decisions = 0;           // arrivals issued
  int64_t replies = 0;
  int64_t failures = 0;            // transport errors and timeouts
  int backlog_max = 0;
  double backlog_first = 0.0;      // mean outstanding, first half
  double backlog_second = 0.0;     // mean outstanding, second half
  bool overloaded = false;         // backlog hit kBacklogAbort
  double wall_s = 0.0;             // first due -> last reply
  double decode_us = 0.0;          // reply decode + diff apply, summed
  int64_t wire_bytes = 0;          // request + reply frames

  double p50() const { return Percentile(decide_us, 50); }
  double p99() const { return Percentile(decide_us, 99); }
  bool valid() const { return Percentile(late_us, 99) <= kLateLimitUs; }
  bool growing() const {
    return backlog_second > 1.5 * backlog_first + 2.0;
  }
  bool passes() const {
    return !overloaded && failures == 0 && !growing() &&
           p99() <= kP99LimitUs;
  }
};

/// Checks one reply frame; returns false (with an output-check error) when
/// it does not decode or its schedule diff does not apply.
bool CheckReply(ServeSetup* s, const std::string& raw,
                const Connection::Waiting& owed, RunResult* result) {
  StatusOr<net::Frame> frame = net::DecodeFrame(raw);
  if (!frame.ok()) {
    result->Check(false, "serve: reply frame does not decode: " +
                             frame.status().ToString());
    return false;
  }
  if (owed.observe) {
    const Status status = frame->type == net::MsgType::kObserveResponse
                              ? ctrl::DecodeObserveResponse(frame->payload)
                              : Status::InvalidArgument("wrong reply type");
    result->Check(status.ok(), "serve: Observe reply: " + status.ToString());
    return status.ok();
  }
  if (frame->type != net::MsgType::kGetScheduleResponse) {
    result->Check(false, "serve: GetSchedule answered with another type");
    return false;
  }
  StatusOr<ctrl::GetScheduleResponse> reply =
      ctrl::DecodeGetScheduleResponse(frame->payload);
  if (!reply.ok()) {
    result->Check(false, "serve: GetSchedule reply: " +
                             reply.status().ToString());
    return false;
  }
  const rl::State& state = s->pool.states[static_cast<size_t>(owed.pool_index)];
  const int n = static_cast<int>(state.assignments.size());
  const int m = s->cluster.num_machines;
  StatusOr<sched::Schedule> schedule = ctrl::ApplyScheduleDiff(
      ctrl::DiffBaseFromState(state, m), reply->diff);
  const bool ok = schedule.ok() && schedule->num_executors() == n;
  result->Check(ok, "serve: schedule diff does not apply to an N-row "
                    "schedule");
  // Without TrainStep the weights never change, and each request carries
  // its own exploration RNG, so every answer to one pool entry must be the
  // same bytes, batched or not.
  std::string& first =
      s->pool.first_reply[static_cast<size_t>(owed.pool_index)];
  if (first.empty()) {
    first = frame->payload;
  } else if (first != frame->payload) {
    result->Check(false, "determinism: two answers to one request differ");
    return false;
  }
  return ok;
}

/// Drives one rung. Open loop: `due_us` holds the arrival times relative to
/// the rung start. Closed loop: arrival k goes out as soon as its master
/// (connection k % 3) has its previous decision answered, like a
/// synchronous MasterClient; `due_us` only sets the count and is stamped
/// with the send times.
Rung RunRung(ServeSetup* s, double rate, std::vector<double> due_us,
             bool closed, RunResult* result) {
  Rung rung;
  rung.rate = rate;
  const size_t total = due_us.size();
  const double half_us = due_us.empty() ? 0.0 : due_us.back() / 2.0;
  int64_t samples_first = 0, samples_second = 0;
  int outstanding = 0;  // decisions issued and not yet answered
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  auto now_us = [&start] { return MicrosBetween(start, Clock::now()); };
  double last_reply_us = 0.0;
  double last_issue_us = 0.0;
  pollfd fds[kConnections];

  while (true) {
    double now = now_us();
    while (next < total && !rung.overloaded) {
      Connection& c = s->connections[next % kConnections];
      if (closed) {
        if (!c.waiting.empty()) break;
        due_us[next] = now;
      } else if (due_us[next] > now) {
        break;
      }
      const int index = static_cast<int>(next % kPoolSize);
      const std::string& decide =
          s->pool.decide_frames[static_cast<size_t>(index)];
      const std::string& observe =
          s->pool.observe_frames[static_cast<size_t>(index)];
      c.out += decide;
      c.out += observe;
      rung.wire_bytes += static_cast<int64_t>(decide.size() + observe.size());
      c.waiting.push_back({due_us[next], index, false});
      c.waiting.push_back({due_us[next], index, true});
      rung.late_us.push_back(now - due_us[next]);
      ++outstanding;
      ++rung.decisions;
      rung.backlog_max = std::max(rung.backlog_max, outstanding);
      if (due_us[next] < half_us) {
        rung.backlog_first += outstanding;
        ++samples_first;
      } else {
        rung.backlog_second += outstanding;
        ++samples_second;
      }
      if (outstanding >= kBacklogAbort) rung.overloaded = true;
      last_issue_us = now;
      ++next;
    }
    if (rung.overloaded) next = total;

    size_t owed = 0;
    for (Connection& c : s->connections) {
      if (c.out_off < c.out.size()) {
        StatusOr<size_t> sent = c.transport->TrySend(
            std::string_view(c.out).substr(c.out_off));
        if (!sent.ok()) {
          rung.failures += static_cast<int64_t>(c.waiting.size());
          c.waiting.clear();
          c.out.clear();
          c.out_off = 0;
          continue;
        }
        c.out_off += *sent;
        if (c.out_off == c.out.size()) {
          c.out.clear();
          c.out_off = 0;
        }
      }
      owed += c.waiting.size();
    }
    if (next == total && owed == 0) break;
    if (owed > 0 && now - std::max(last_reply_us, last_issue_us) >
                        kStallTimeoutUs) {
      for (Connection& c : s->connections) {
        rung.failures += static_cast<int64_t>(c.waiting.size());
        c.waiting.clear();
      }
      break;
    }

    // Sleep until the next arrival is due or a reply is readable; spin for
    // the last stretch so arrivals are issued on time.
    const double wait_us =
        !closed && next < total ? due_us[next] - now : 1000.0;
    for (int i = 0; i < kConnections; ++i) {
      Connection& c = s->connections[static_cast<size_t>(i)];
      fds[i].fd = c.transport->readiness_fd();
      fds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    timespec timeout{0, 0};
    if (wait_us > kSpinUs) {
      const long ns = static_cast<long>((wait_us - kSpinUs) * 1000.0);
      timeout.tv_sec = ns / 1000000000L;
      timeout.tv_nsec = ns % 1000000000L;
    }
    ::ppoll(fds, kConnections, &timeout, nullptr);

    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = s->connections[static_cast<size_t>(i)];
      while (!c.waiting.empty()) {
        StatusOr<std::string> raw = c.transport->TryRecv();
        if (!raw.ok()) {
          if (raw.status().code() != StatusCode::kDeadlineExceeded) {
            rung.failures += static_cast<int64_t>(c.waiting.size());
            c.waiting.clear();
          }
          break;
        }
        const double recv_us = now_us();
        const Connection::Waiting owed_reply = c.waiting.front();
        c.waiting.pop_front();
        ++rung.replies;
        rung.wire_bytes += static_cast<int64_t>(raw->size());
        last_reply_us = recv_us;
        if (owed_reply.observe) {
          rung.observe_us.push_back(recv_us - owed_reply.due_us);
        } else {
          rung.decide_us.push_back(recv_us - owed_reply.due_us);
          --outstanding;
        }
        const Clock::time_point check_start = Clock::now();
        if (!CheckReply(s, *raw, owed_reply, result)) ++rung.failures;
        rung.decode_us += MicrosBetween(check_start, Clock::now());
      }
    }
  }
  if (samples_first > 0) rung.backlog_first /= samples_first;
  if (samples_second > 0) rung.backlog_second /= samples_second;
  rung.wall_s = last_reply_us / 1e6;
  result->Check(rung.overloaded || rung.replies == 2 * rung.decisions,
                "serve: reply count differs from request count at " +
                    std::to_string(static_cast<int>(rate)) + "/s");
  return rung;
}

std::vector<double> ArrivalTimes(double rate, double seconds, uint64_t seed) {
  Rng rng(seed ^ static_cast<uint64_t>(rate * 7919.0));
  std::vector<double> due;
  double t = 0.0;
  const double end_us = seconds * 1e6;
  while (true) {
    t += rng.Exponential(rate) * 1e6;
    if (t > end_us) break;
    due.push_back(t);
  }
  return due;
}

Rung RunOpenLoop(ServeSetup* s, double rate, double seconds, uint64_t seed,
                 RunResult* result) {
  return RunRung(s, rate, ArrivalTimes(rate, seconds, seed), false, result);
}

void Account(const Rung& rung, RunResult* result) {
  result->attempted += 2 * rung.decisions;
  result->failed += rung.failures;
}

std::string RungLine(const char* label, const Rung& r) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %-6s %8.0f/s p50 %7.1f us p99 %7.1f us (n=%zu) late_p99 "
                "%6.1f us backlog %d (%.1f -> %.1f)%s%s",
                label, r.rate, r.p50(), r.p99(), r.decide_us.size(),
                Percentile(r.late_us, 99), r.backlog_max, r.backlog_first,
                r.backlog_second, r.valid() ? "" : " INVALID",
                r.rate == 0.0 ? " (closed loop)"
                              : (r.passes() ? " pass" : " fail"));
  return line;
}

/// In-process replay of the decision path on the serve inputs, for the
/// per-layer spans (rl decide, miqp solve, ctrl codec).
void ReplayLayers(const ServeSetup& s, uint64_t seed, RunResult* result) {
  std::vector<double> decide_us, solve_us, codec_us;
  rl::PolicyAction action;
  Rng rng(seed + 5);
  const auto* ddpg = dynamic_cast<const rl::DdpgAgent*>(s.policy.get());
  const int n = s.app.topology.num_executors();
  const int m = s.cluster.num_machines;
  miqp::KnnActionSolver solver(n, m);
  miqp::KnnWorkspace ws;
  miqp::KnnResult knn;
  for (int i = 0; i < kPoolSize; ++i) {
    const rl::State& state = s.pool.states[static_cast<size_t>(i)];
    Clock::time_point t = Clock::now();
    Status decided;
    {
      obs::WallSpan span("bench.Policy.SelectActionInto");
      decided = s.policy->SelectActionInto(state, 0.1, &rng, &action);
    }
    decide_us.push_back(MicrosBetween(t, Clock::now()));
    result->Check(decided.ok(), "serve: replayed decision failed");
    if (ddpg != nullptr) {
      const std::vector<double> proto = ddpg->ProtoAction(state);
      t = Clock::now();
      Status solved;
      {
        obs::WallSpan span("bench.KnnActionSolver.SolveInto");
        solved = solver.SolveInto(proto, kKnnK, nullptr, &ws, &knn);
      }
      solve_us.push_back(MicrosBetween(t, Clock::now()));
      result->Check(solved.ok(), "serve: replayed K-NN solve failed");
    }
    t = Clock::now();
    std::string encoded;
    StatusOr<ctrl::GetScheduleRequest> request =
        Status::Internal("not decoded");
    {
      obs::WallSpan span("bench.ctrl.codec");
      StatusOr<net::Frame> frame =
          net::DecodeFrame(s.pool.decide_frames[static_cast<size_t>(i)]);
      request = frame.ok() ? ctrl::DecodeGetScheduleRequest(frame->payload)
                           : StatusOr<ctrl::GetScheduleRequest>(frame.status());
      if (request.ok()) encoded = ctrl::EncodeGetScheduleRequest(*request);
    }
    codec_us.push_back(MicrosBetween(t, Clock::now()));
    result->Check(request.ok() && !encoded.empty(),
                  "serve: request codec round trip failed");
  }
  result->AddLayer("rl.decide_us.p50", Percentile(decide_us, 50), "us");
  result->AddLayer("rl.decide_us.p99", Percentile(decide_us, 99), "us");
  result->AddLayer("miqp.solve_us.p50", Percentile(solve_us, 50), "us");
  result->AddLayer("miqp.solve_us.p99", Percentile(solve_us, 99), "us");
  // Request decode + re-encode here; the reply decode is added by the
  // caller from the generator's own timing.
  result->AddLayer("net.codec_us", Mean(codec_us), "us");
}

}  // namespace

RunResult RunServeDecide(const Options& options) {
  RunResult result;
  auto setup = std::make_unique<ServeSetup>();
  Status built = Status::OK();
  const double setup_s = MedianSetupSeconds([&] {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<ServeSetup>();
    built = BuildSetup(options.seed, setup.get());
    return SecondsSince(start);
  });
  result.Check(built.ok(), "serve: setup failed: " + built.ToString());
  if (!built.ok()) return result;
  ServeSetup& s = *setup;

  // Rung lengths scale with the run budget: lo and hi take 20% each, each
  // ladder rung 5%.
  const double rung_s = options.seconds * 0.2;
  const double ladder_s = options.seconds * 0.05;

  // Warm-up (untimed): page in the policy, sockets and buffers.
  (void)RunOpenLoop(&s, kLoRate, 0.3, options.seed + 99, &result);

  // The gated figures: three synchronous masters (closed loop, each waits
  // for its reply before the next decision, as MasterClient does) keep the
  // server busy, so the round trip is decision work plus queueing behind
  // the other two masters. The open-loop lo latency is dominated by how
  // fast the host wakes an idle thread, and on a shared host that moved by
  // up to a fifth between runs; the closed loop moves with the work. Its
  // repetitions are spread over the run, before and between the open-loop
  // rungs, so a slow stretch of the host moves only some of them.
  std::vector<double> closed_s, closed_p50, closed_p99;
  auto closed_group = [&] {
    for (int i = 0; i < kClosedRepsPerGroup; ++i) {
      const Rung r = RunRung(&s, 0.0, std::vector<double>(kClosedDecisions),
                             true, &result);
      Account(r, &result);
      closed_s.push_back(r.wall_s);
      closed_p50.push_back(r.p50());
      closed_p99.push_back(r.p99());
    }
  };
  closed_group();
  const Rung lo = RunOpenLoop(&s, kLoRate, rung_s, options.seed, &result);
  closed_group();
  const Rung hi = RunOpenLoop(&s, kHiRate, rung_s, options.seed + 1, &result);
  closed_group();
  Account(lo, &result);
  Account(hi, &result);

  // serve_max_rps: the highest rate whose rung passes (decide p99 <= 1 ms,
  // no backlog growth, no failures). From the fixed rungs, climb a
  // geometric ladder above hi while rungs pass, then bisect (geometric
  // midpoints) between the last passing and the first failing rate. A rung
  // on which the generator itself ran late is invalid and ends the search.
  result.notes.push_back("serve rungs:");
  result.notes.push_back(RungLine("lo", lo));
  result.notes.push_back(RungLine("hi", hi));
  double pass_rate = 0.0;
  double fail_rate = kLoRate;
  if (lo.passes()) {
    pass_rate = kLoRate;
    fail_rate = hi.passes() ? 0.0 : kHiRate;
    if (hi.passes()) pass_rate = kHiRate;
  }
  bool generator_bound = !lo.valid() || !hi.valid();
  uint64_t rung_seed = options.seed + 2;
  auto probe = [&](double rate, const char* label) {
    const Rung r = RunOpenLoop(&s, rate, ladder_s, rung_seed++, &result);
    Account(r, &result);
    result.notes.push_back(RungLine(label, r));
    if (!r.valid()) {
      generator_bound = true;
    } else if (r.passes()) {
      pass_rate = rate;
    } else {
      fail_rate = rate;
    }
  };
  while (!generator_bound && pass_rate > 0.0 && fail_rate == 0.0) {
    probe(pass_rate * kLadderStep, "ladder");
  }
  for (int i = 0; i < kBisections && !generator_bound && pass_rate > 0.0;
       ++i) {
    probe(std::sqrt(pass_rate * fail_rate), "bisect");
  }
  if (generator_bound) {
    result.notes.push_back(
        "  search stopped: the generator ran late (rung INVALID); "
        "serve_max_rps is a lower bound");
  }

  result.AddReport("decide_p50_us.lo", lo.p50(), "us");
  result.AddReport("decide_p99_us.lo", lo.p99(), "us");
  result.AddReport("decide_p50_us.hi", hi.p50(), "us");
  result.AddReport("decide_p99_us.hi", hi.p99(), "us");
  result.AddReport("observe_p99_us.hi", Percentile(hi.observe_us, 99), "us");
  result.AddReport("serve_max_rps", pass_rate, "decisions/s");
  result.AddReport("closed3_wall_s", Median(closed_s), "s");
  result.AddReport("closed3_p50_us", Median(closed_p50), "us");
  result.AddReport("closed3_p99_us", Median(closed_p99), "us");
  std::string replies;
  for (const std::string& reply : s.pool.first_reply) replies += reply;
  result.fingerprint["replies"] = Digest(replies);
  result.AddReport("samples.lo", static_cast<double>(lo.decide_us.size()),
                   "count");
  result.AddReport("samples.hi", static_cast<double>(hi.decide_us.size()),
                   "count");
  result.AddReport("gen.late_p99_us.lo", Percentile(lo.late_us, 99), "us");
  result.AddReport("gen.late_p99_us.hi", Percentile(hi.late_us, 99), "us");

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"run_s", Median(closed_s), "s"},
      {"op_p50_us", Median(closed_p50), "us"},
  };

  if (options.trace) {
    obs::MetricsRegistry::Get().ResetValues();
    EnableObs(true);
    const Rung traced_lo =
        RunOpenLoop(&s, kLoRate, rung_s, options.seed, &result);
    const Rung traced_hi =
        RunOpenLoop(&s, kHiRate, rung_s, options.seed + 1, &result);
    const Rung traced_closed = RunRung(
        &s, 0.0, std::vector<double>(kClosedDecisions), true, &result);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get().Snapshot();
    s.Shutdown();  // the policy is ours again
    ReplayLayers(s, options.seed, &result);
    EnableObs(false);

    const int64_t decisions =
        traced_lo.decisions + traced_hi.decisions + traced_closed.decisions;
    for (Metric& metric : result.layers) {
      if (metric.name == "net.codec_us" && decisions > 0) {
        metric.value += (traced_lo.decode_us + traced_hi.decode_us +
                         traced_closed.decode_us) /
                        static_cast<double>(decisions);
      }
    }
    result.AddLayer("nn.actor_forward_us",
                    HistogramMean(snap, "phase.actor_forward_us"), "us");
    result.AddLayer("nn.critic_score_us",
                    HistogramMean(snap, "phase.critic_score_us"), "us");
    result.AddLayer("miqp.solves",
                    static_cast<double>(CounterValue(snap, "miqp.solves")),
                    "count");
    result.AddLayer(
        "miqp.solve_failures",
        static_cast<double>(CounterValue(snap, "miqp.solve_failures")),
        "count");
    const char* wait = "ctrl.server.session.queue_wait_us";
    result.AddLayer("ctrl.queue_wait_us.p50",
                    HistogramPercentile(snap, wait, 50), "us");
    result.AddLayer("ctrl.queue_wait_us.p99",
                    HistogramPercentile(snap, wait, 99), "us");
    result.AddLayer("ctrl.batch_width.mean",
                    HistogramMean(snap, "ctrl.server.session.batch_width"),
                    "count");
    const obs::HistogramSnapshot* outbox =
        FindHistogram(snap, "ctrl.server.session.outbox_depth");
    result.AddLayer("ctrl.outbox_depth.max",
                    outbox == nullptr ? 0.0 : outbox->max, "count");
    result.AddLayer("ctrl.requests.get_schedule",
                    static_cast<double>(decisions), "count");
    result.AddLayer("ctrl.requests.observe", static_cast<double>(decisions),
                    "count");
    result.Check(CounterValue(snap, "ctrl.server.requests") == 2 * decisions,
                 "serve: server request count differs from requests sent");
    // Both directions of a decision's GetSchedule and Observe frames.
    result.AddLayer("net.bytes_per_decide",
                    static_cast<double>(traced_lo.wire_bytes +
                                        traced_hi.wire_bytes +
                                        traced_closed.wire_bytes) /
                        static_cast<double>(decisions),
                    "B");
    result.AddLayer("gen.late_p99_us.lo", Percentile(lo.late_us, 99), "us");
    result.AddLayer("gen.late_p99_us.hi", Percentile(hi.late_us, 99), "us");
    result.AddLayer("gen.backlog_max.lo", lo.backlog_max, "count");
    result.AddLayer("gen.backlog_max.hi", hi.backlog_max, "count");
    const double untraced_p50 = Median(closed_p50);
    result.AddLayer(
        "obs.overhead_pct",
        100.0 * (traced_closed.p50() - untraced_p50) / untraced_p50, "%");
    result.notes.push_back(RungLine("lo*", traced_lo));
    result.notes.push_back(RungLine("hi*", traced_hi));
    result.notes.push_back(RungLine("closed*", traced_closed));
    result.notes.push_back(ExportObs(options));
  }
  return result;
}

}  // namespace perfbench
