// Distributed-serve workloads: serve-inproc and serve-tcp.
//
// A fixed set of planted 3SAT (d3s) n=100 instances is drawn from the seed;
// each becomes an AWC+Rslv JobSpec. One client solves the jobs in a closed
// loop — the next job starts when net::serve returns the previous one — each
// job on a fresh transport with one coordinator (this thread) and three
// worker threads. Async search length varies with thread scheduling, so per
// job wall is a diagnostic here; messages per second is the gated speed.
// Jobs run in set order, wrapping around, until the time budget is spent.
//
// Tracing wraps net::Transport, and through it every Listener and
// Connection the coordinator and the workers use, from outside.
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "csp/validate.h"
#include "gen/sat_gen.h"
#include "ledger.h"
#include "net/coordinator.h"
#include "net/jobspec.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "net/worker.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace discsp;

constexpr int kWorkers = 3;
constexpr int kSetupRounds = 5;
/// Per-job wall budget. Async search length is heavy-tailed (jobs of 10 s
/// were seen against a median near 0.2 s, and a 30 s budget was hit once in
/// about 500 jobs), so the budget sits far above that: hitting it means a
/// hung job, which counts as failed.
constexpr std::int64_t kJobDeadlineMs = 120000;

struct ServeSpec {
  int n = 100;
  int jobs = 0;
};

ServeSpec serve_spec(const std::string& size) {
  ServeSpec spec;
  if (size == "smoke") {
    spec.n = 30;
    spec.jobs = 2;
  } else {
    spec.n = 100;
    spec.jobs = 64;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Tracing decorators.

/// Transport calls of one side (coordinator or workers); times in ticks().
struct SideTrace {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t connects = 0;
  std::uint64_t dropped = 0;
  std::int64_t send_t = 0;
  std::int64_t recv_t = 0;
  std::int64_t pump_t = 0;
  std::int64_t connect_t = 0;
  std::int64_t other_t = 0;  // accept / close

  std::int64_t total_t() const {
    return send_t + recv_t + pump_t + connect_t + other_t;
  }
  void add(const SideTrace& o) {
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    connects += o.connects;
    dropped += o.dropped;
    send_t += o.send_t;
    recv_t += o.recv_t;
    pump_t += o.pump_t;
    connect_t += o.connect_t;
    other_t += o.other_t;
  }
};

/// A side's totals, shared by the connections of that side. Connections
/// count privately (one thread each) and fold in when they are destroyed.
struct SharedSide {
  std::mutex mutex;
  SideTrace total;

  void fold(const SideTrace& part) {
    std::lock_guard<std::mutex> lock(mutex);
    total.add(part);
  }
};

class TracedConnection final : public net::Connection {
 public:
  TracedConnection(std::unique_ptr<net::Connection> inner, SharedSide& side)
      : inner_(std::move(inner)), side_(side) {}
  TracedConnection(const TracedConnection&) = delete;
  TracedConnection& operator=(const TracedConnection&) = delete;
  ~TracedConnection() override {
    local_.dropped += inner_->dropped_frames();
    side_.fold(local_);
  }

  bool send(const net::WireFrame& frame) override {
    const std::int64_t t0 = ticks();
    const bool ok = inner_->send(frame);
    local_.send_t += ticks() - t0;
    ++local_.frames_out;
    return ok;
  }
  bool recv(net::WireFrame& frame) override {
    const std::int64_t t0 = ticks();
    const bool got = inner_->recv(frame);
    local_.recv_t += ticks() - t0;
    if (got) ++local_.frames_in;
    return got;
  }
  void pump(int timeout_ms) override {
    const std::int64_t t0 = ticks();
    inner_->pump(timeout_ms);
    local_.pump_t += ticks() - t0;
  }
  bool open() const override { return inner_->open(); }
  void close() override {
    const std::int64_t t0 = ticks();
    inner_->close();
    local_.other_t += ticks() - t0;
  }
  std::uint64_t dropped_frames() const override { return inner_->dropped_frames(); }

 private:
  std::unique_ptr<net::Connection> inner_;
  SharedSide& side_;
  SideTrace local_;
};

class TracedListener final : public net::Listener {
 public:
  TracedListener(std::unique_ptr<net::Listener> inner, SharedSide& side)
      : inner_(std::move(inner)), side_(side) {}
  TracedListener(const TracedListener&) = delete;
  TracedListener& operator=(const TracedListener&) = delete;
  ~TracedListener() override { side_.fold(local_); }

  std::unique_ptr<net::Connection> accept() override {
    const std::int64_t t0 = ticks();
    std::unique_ptr<net::Connection> conn = inner_->accept();
    local_.other_t += ticks() - t0;
    if (conn == nullptr) return nullptr;
    return std::make_unique<TracedConnection>(std::move(conn), side_);
  }
  int port() const override { return inner_->port(); }

 private:
  std::unique_ptr<net::Listener> inner_;
  SharedSide& side_;
  SideTrace local_;
};

/// Listeners belong to the coordinator side, connects to the worker side.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport& inner, SharedSide& coord, SharedSide& worker)
      : inner_(inner), coord_(coord), worker_(worker) {}

  std::unique_ptr<net::Listener> listen(const std::string& endpoint) override {
    return std::make_unique<TracedListener>(inner_.listen(endpoint), coord_);
  }
  std::unique_ptr<net::Connection> connect(const std::string& endpoint,
                                           int timeout_ms) override {
    SideTrace local;
    const std::int64_t t0 = ticks();
    std::unique_ptr<net::Connection> conn = inner_.connect(endpoint, timeout_ms);
    local.connect_t = ticks() - t0;
    local.connects = 1;
    worker_.fold(local);
    if (conn == nullptr) return nullptr;
    return std::make_unique<TracedConnection>(std::move(conn), worker_);
  }

 private:
  net::Transport& inner_;
  SharedSide& coord_;
  SharedSide& worker_;
};

// ---------------------------------------------------------------------------
// Jobs.

struct SetupTimes {
  double instance_ms = 0.0;
  double distribute_ms = 0.0;
  double jobspec_ms = 0.0;
};

std::uint64_t job_seed(std::uint64_t seed, int job) {
  return seed ^ (0x9fb21c651e98df25ULL * static_cast<std::uint64_t>(job + 1));
}

/// One ServeConfig per job: the JobSpec (instance embedded) plus the
/// coordinator settings.
std::vector<net::ServeConfig> build_jobs(const ServeSpec& spec, std::uint64_t seed, bool tcp,
                                         SetupTimes& times) {
  std::vector<net::ServeConfig> jobs(static_cast<std::size_t>(spec.jobs));
  for (int j = 0; j < spec.jobs; ++j) {
    net::ServeConfig& job = jobs[static_cast<std::size_t>(j)];
    analysis::ReproBundle& bundle = job.job.bundle;
    const std::uint64_t js = job_seed(seed, j);
    Rng rng(js);
    const auto t0 = Clock::now();
    const gen::SatInstance inst = gen::generate_sat3(spec.n, rng);
    const auto t1 = Clock::now();
    bundle.instance = gen::distribute(inst);
    const auto t2 = Clock::now();

    // The bundle `discsp_cli serve` builds: AWC+Rslv, the failure detector
    // on (50 ms base timeout), the invariant monitor on with the planted
    // witness for its no-false-insolubility screen.
    bundle.algo = "awc";
    bundle.strategy = "Rslv";
    bundle.seed = js;
    bundle.retransmit.ack_timeout = 50;
    bundle.monitor = true;
    bundle.planted = inst.planted;
    bundle.transport = tcp ? "tcp" : "inproc";
    bundle.deadline_ms = kJobDeadlineMs;
    const Problem& p = bundle.instance.problem();
    // A stream of its own: Rng(js) itself drew the planted witness first.
    Rng init_rng = Rng(js).derive(1);
    bundle.initial.resize(static_cast<std::size_t>(p.num_variables()));
    for (VarId v = 0; v < p.num_variables(); ++v) {
      bundle.initial[static_cast<std::size_t>(v)] =
          static_cast<Value>(init_rng.below(static_cast<std::uint64_t>(p.domain_size(v))));
    }
    job.job.num_workers = kWorkers;
    job.deadline_ms = kJobDeadlineMs;
    job.transport = bundle.transport;
    times.instance_ms += ms_between(t0, t1);
    times.distribute_ms += ms_between(t1, t2);
    times.jobspec_ms += ms_between(t2, Clock::now());
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// One job through net::serve.

struct JobRecord {
  double serve_ms = 0.0;
  double launch_ms = 0.0;  // transport + listener + worker threads started
  double join_ms = 0.0;    // waiting for the worker threads after serve
  double worker_ms = 0.0;  // Σ run_worker walls
  sim::RunMetrics metrics;
  std::string problem;     // why the job failed ("" = it did not)
  bool wrong = false;      // the failure is a wrong output, not a miss
};

JobRecord run_job(const net::ServeConfig& job, bool tcp, SharedSide* coord,
                  SharedSide* worker) {
  JobRecord record;
  const auto t_launch = Clock::now();
  std::unique_ptr<net::Transport> base;
  if (tcp) {
    base = std::make_unique<net::TcpTransport>();
  } else {
    base = std::make_unique<net::InProcTransport>();
  }
  std::unique_ptr<TracedTransport> traced;
  if (coord != nullptr) traced = std::make_unique<TracedTransport>(*base, *coord, *worker);
  net::Transport& transport = traced != nullptr ? *traced : *base;

  std::unique_ptr<net::Listener> listener =
      transport.listen(tcp ? "127.0.0.1:0" : "coordinator");
  const std::string endpoint =
      tcp ? "127.0.0.1:" + std::to_string(listener->port()) : "coordinator";

  std::vector<net::WorkerResult> results(kWorkers);
  std::vector<double> walls(kWorkers, 0.0);
  net::ServeResult res;
  Clock::time_point t0;
  Clock::time_point t1;
  {
    // jthreads join on every path out of this block, exceptions included.
    std::vector<std::jthread> threads;
    threads.reserve(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      threads.emplace_back([&transport, &results, &walls, &endpoint, i] {
        const auto slot = static_cast<std::size_t>(i);
        net::WorkerConfig wc;
        wc.endpoint = endpoint;
        wc.connect_timeout_ms = 1000;
        wc.max_connect_attempts = 10;
        wc.reconnect_seed = 0x5eed + slot;
        const auto start = Clock::now();
        try {
          results[slot] = net::run_worker(transport, wc);
        } catch (const std::exception& e) {
          results[slot].error = e.what();
        }
        walls[slot] = ms_between(start, Clock::now());
      });
    }
    t0 = Clock::now();
    res = net::serve(*listener, job);
    t1 = Clock::now();
  }
  listener.reset();
  const auto t2 = Clock::now();

  record.launch_ms = ms_between(t_launch, t0);
  record.serve_ms = ms_between(t0, t1);
  record.join_ms = ms_between(t1, t2);
  for (double w : walls) record.worker_ms += w;
  record.metrics = res.run.metrics;

  const sim::RunMetrics& m = res.run.metrics;
  for (const net::WorkerResult& w : results) {
    if (!w.error.empty() && record.problem.empty()) record.problem = "worker: " + w.error;
  }
  if (!res.error.empty()) {
    record.problem = "serve: " + res.error;
  } else if (res.reason == net::StopReason::kDeadline) {
    record.problem = "deadline hit";
  } else if (m.monitor.violations > 0) {
    record.problem = "monitor reported " + std::to_string(m.monitor.violations) + " violations";
    record.wrong = true;
  } else if (!m.solved) {
    record.problem = std::string("stopped unsolved (") + net::to_string(res.reason) + ")";
    record.wrong = true;
  } else if (!validate_solution(job.job.bundle.instance.problem(), res.run.assignment).ok) {
    record.problem = "unvalidated solved result";
    record.wrong = true;
  }
  return record;
}

struct Totals {
  double serve_ms = 0.0;
  double checks = 0.0;
  double messages = 0.0;
  double retransmissions = 0.0;
  double launch_ms = 0.0;
  double join_ms = 0.0;
  double worker_ms = 0.0;
  std::vector<double> job_ms;
  std::vector<double> msgs_per_s;  // each job's messages per second
};

void record_job(const JobRecord& r, std::size_t index, WorkloadResult& out, Totals& totals) {
  ++out.attempted;
  if (!r.problem.empty()) {
    out.fail("job " + std::to_string(index) + ": " + r.problem);
    if (r.wrong) out.correct = false;
  }
  totals.serve_ms += r.serve_ms;
  totals.checks += static_cast<double>(r.metrics.total_checks);
  totals.messages += static_cast<double>(r.metrics.messages);
  totals.retransmissions += static_cast<double>(r.metrics.retransmissions);
  totals.launch_ms += r.launch_ms;
  totals.join_ms += r.join_ms;
  totals.worker_ms += r.worker_ms;
  totals.job_ms.push_back(r.serve_ms);
  totals.msgs_per_s.push_back(
      1000.0 * ratio(static_cast<double>(r.metrics.messages), r.serve_ms));
}

}  // namespace

WorkloadResult run_serve(const Request& request, bool tcp) {
  WorkloadResult out;
  const ServeSpec spec = serve_spec(request.size);

  std::vector<SetupTimes> setup;
  std::vector<net::ServeConfig> jobs;
  for (int round = 0; round < kSetupRounds; ++round) {
    jobs.clear();
    SetupTimes t;
    jobs = build_jobs(spec, request.seed, tcp, t);
    setup.push_back(t);
  }

  // Closed loop over the job set until the budget is spent.
  const auto budget = std::chrono::duration<double>(request.trace ? request.seconds / 2.0
                                                                  : request.seconds);
  Totals plain;
  std::size_t ran = 0;
  const auto start = Clock::now();
  while (ran == 0 || Clock::now() - start < budget) {
    record_job(run_job(jobs[ran % jobs.size()], tcp, nullptr, nullptr), ran, out, plain);
    ++ran;
  }

  if (!request.trace) {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup) {
      setup_s.push_back((t.instance_ms + t.distribute_ms + t.jobspec_ms) / 1000.0);
    }
    report_setup(setup_s, out);
    // The median job's rate: short jobs are dominated by attach and
    // hand-shake, the longest by a grown nogood store, and which of those a
    // run draws follows the thread schedule.
    out.put("msgs_per_s", median(plain.msgs_per_s));
    return out;
  }

  // Traced phase: a fresh set-up plus the same job sequence, traced.
  SharedSide coord;
  SharedSide worker;
  Totals tr;
  const TickScale scale;
  const auto traced_start = Clock::now();
  SetupTimes traced_setup;
  const std::vector<net::ServeConfig> traced_jobs = build_jobs(spec, request.seed, tcp, traced_setup);
  for (std::size_t i = 0; i < ran; ++i) {
    record_job(run_job(traced_jobs[i % traced_jobs.size()], tcp, &coord, &worker), i, out, tr);
  }
  const double traced_wall_ms = ms_between(traced_start, Clock::now());

  const double ns_per_tick = scale.ns_per_tick();
  const auto ms = [ns_per_tick](std::int64_t t) { return t * ns_per_tick / 1e6; };
  const SideTrace& c = coord.total;
  const SideTrace& w = worker.total;
  const double coord_self_ms = tr.serve_ms - ms(c.total_t());
  Ledger ledger(request.ledger_drop);
  ledger.add("gen.instance", traced_setup.instance_ms);
  ledger.add("gen.distribute", traced_setup.distribute_ms);
  ledger.add("setup.jobspec", traced_setup.jobspec_ms);
  ledger.add("net.launch", tr.launch_ms);
  ledger.add("net.coord.self", coord_self_ms);
  ledger.add("net.coord.send", ms(c.send_t));
  ledger.add("net.coord.recv", ms(c.recv_t));
  ledger.add("net.coord.pump", ms(c.pump_t));
  ledger.add("net.coord.accept_close", ms(c.other_t));
  ledger.add("net.join", tr.join_ms);
  ledger.reconcile(traced_wall_ms, out);
  // The worker threads run beside the coordinator; their own ledger (self +
  // transport calls = Σ run_worker walls) goes to stderr for reading.
  const double worker_self_ms = tr.worker_ms - ms(w.total_t());
  std::cerr << "worker threads (Σ run_worker " << tr.worker_ms << " ms): self "
            << worker_self_ms << " ms, send " << ms(w.send_t) << " ms, recv " << ms(w.recv_t)
            << " ms, pump " << ms(w.pump_t) << " ms, connect " << ms(w.connect_t)
            << " ms, close " << ms(w.other_t) << " ms\n";

  // Per-layer values are per job unless named as a ratio.
  const double jobs_run = static_cast<double>(ran);
  std::vector<double> instance_ms;
  std::vector<double> distribute_ms;
  for (const SetupTimes& t : setup) {
    instance_ms.push_back(t.instance_ms);
    distribute_ms.push_back(t.distribute_ms);
  }
  out.put("gen.instance_ms", median(instance_ms));
  out.put("gen.distribute_ms", median(distribute_ms));

  out.put("net.coord.frames_in", ratio(c.frames_in, jobs_run));
  out.put("net.coord.frames_out", ratio(c.frames_out, jobs_run));
  out.put("net.coord.send_ns_per_frame", ratio(c.send_t * ns_per_tick, c.frames_out));
  out.put("net.coord.recv_ns_per_frame", ratio(c.recv_t * ns_per_tick, c.frames_in));
  out.put("net.coord.pump_ms", ratio(ms(c.pump_t), jobs_run));
  out.put("net.coord.self_ms", ratio(coord_self_ms, jobs_run));

  out.put("net.worker.frames_in", ratio(w.frames_in, jobs_run));
  out.put("net.worker.frames_out", ratio(w.frames_out, jobs_run));
  out.put("net.worker.send_ns_per_frame", ratio(w.send_t * ns_per_tick, w.frames_out));
  out.put("net.worker.pump_ms", ratio(ms(w.pump_t), jobs_run));
  out.put("net.worker.self_ms", ratio(worker_self_ms, jobs_run));

  out.put("net.frames_per_msg", ratio(c.frames_out + w.frames_out, tr.messages));
  out.put("net.msgs_per_job", ratio(tr.messages, jobs_run));
  out.put("net.connect_ms", ratio(ms(w.connect_t), w.connects));
  out.put("net.dropped_frames", ratio(c.dropped + w.dropped, jobs_run));
  out.put("net.retransmissions", ratio(tr.retransmissions, jobs_run));
  out.put("net.job_ms_p50", median(tr.job_ms));
  out.put("net.job_ms_tail", quantile(tr.job_ms, tail_quantile_level(tr.job_ms.size())));

  out.put("trace.overhead_ms", tr.serve_ms - plain.serve_ms);
  out.put("trace.overhead_pct", 100.0 * ratio(tr.serve_ms - plain.serve_ms, plain.serve_ms));
  out.put("e2e.ns_per_check", 1e6 * ratio(plain.serve_ms, plain.checks));
  put_trial_diagnostics(plain.job_ms, out);
  return out;
}

}  // namespace perfbench
