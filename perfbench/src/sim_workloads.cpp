// Simulator workloads: sat3-learning and coloring-db.
//
// A workload is a fixed trial set drawn from the seed: for each n, a few
// instances, a few random initial assignments per instance, and every
// algorithm row on each (instance, initial) pair — the paper's comparison
// protocol. Instances, initial assignments and per-runner RNG streams are
// seeded exactly as analysis::make_instance / run_comparison seed them, so
// a trial here is the same trial the table harness runs at that seed.
//
// The measured loop runs the set's trials in order until the time budget is
// spent, wrapping around when a fast machine finishes the set; a trial run
// twice must reproduce its paper metrics bit for bit.
//
// Tracing wraps the public seams from outside: each sim::Agent returned by
// make_agents, the engine's sim::MessageSink as the agent sees it, and the
// learning::LearningStrategy prototype the AWC solver clones per agent.
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "analysis/experiment.h"
#include "awc/awc_agent.h"
#include "awc/awc_solver.h"
#include "csp/validate.h"
#include "db/db_solver.h"
#include "gen/coloring_gen.h"
#include "gen/sat_gen.h"
#include "learning/strategy.h"
#include "ledger.h"
#include "sim/sync_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace discsp;

struct RunnerSpec {
  std::string label;     // the paper's row label
  std::string strategy;  // AWC learning strategy; empty = distributed breakout
};

struct SimSpec {
  std::string name;
  analysis::ProblemFamily family = analysis::ProblemFamily::kSat3;
  std::vector<int> ns;
  int instances = 0;  // per n
  int inits = 0;      // per instance
  std::vector<RunnerSpec> runners;
  int max_cycles = 10000;
};

SimSpec sat3_spec(const std::string& size) {
  SimSpec spec;
  spec.name = "sat3-learning";
  spec.family = analysis::ProblemFamily::kSat3;
  spec.runners = {{"Rslv", "Rslv"}, {"Mcs", "Mcs"}, {"No", "No"}};
  if (size == "smoke") {
    spec.ns = {20, 30};
    spec.instances = 1;
    spec.inits = 1;
  } else {
    // One initial assignment per instance: across seeds the instances, not
    // the initial values, decide a trial's cost, so more instances per run
    // make the figures steadier.
    spec.ns = {100, 150};
    spec.instances = 64;
    spec.inits = 1;
  }
  return spec;
}

SimSpec coloring_spec(const std::string& size) {
  SimSpec spec;
  spec.name = "coloring-db";
  spec.family = analysis::ProblemFamily::kColoring3;
  spec.runners = {{"DB", ""}, {"AWC+3rdRslv", "3rdRslv"}};
  if (size == "smoke") {
    spec.ns = {20, 30};
    spec.instances = 1;
    spec.inits = 1;
  } else {
    spec.ns = {120, 150};
    spec.instances = 48;
    spec.inits = 3;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Tracing decorators.

/// Time (in ticks()) and calls inside one algorithm layer's agent hooks.
struct HookTrace {
  std::int64_t hook_t = 0;  // start + receive + compute
  std::int64_t receive_t = 0;
  std::int64_t compute_t = 0;
  std::int64_t send_t = 0;  // inside the engine's sink, called from hooks
  std::uint64_t receives = 0;
  std::uint64_t computes = 0;
  std::uint64_t sends = 0;
};

struct LearnTrace {
  std::int64_t t = 0;  // ticks()
  std::uint64_t calls = 0;
  std::uint64_t learned = 0;       // calls that returned a nogood
  std::uint64_t learned_lits = 0;  // literals in those nogoods
  std::uint64_t extra_checks = 0;  // checks the strategy itself metered
};

/// The engine's sink as a traced agent sees it: times each send.
class TracedSink final : public sim::MessageSink {
 public:
  TracedSink(sim::MessageSink& inner, HookTrace& trace) : inner_(inner), trace_(trace) {}

  void send(AgentId to, sim::MessagePayload payload) override {
    const std::int64_t t0 = ticks();
    inner_.send(to, std::move(payload));
    trace_.send_t += ticks() - t0;
    ++trace_.sends;
  }

 private:
  sim::MessageSink& inner_;
  HookTrace& trace_;
};

/// Wraps one agent built by AwcSolver/DbSolver::make_agents and times its
/// engine hooks; every other call is forwarded untouched.
class TracedAgent final : public sim::Agent {
 public:
  TracedAgent(std::unique_ptr<sim::Agent> inner, HookTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  const sim::Agent& inner() const { return *inner_; }

  AgentId id() const override { return inner_->id(); }
  VarId variable() const override { return inner_->variable(); }
  Value current_value() const override { return inner_->current_value(); }

  void start(sim::MessageSink& out) override {
    TracedSink sink(out, trace_);
    const std::int64_t t0 = ticks();
    inner_->start(sink);
    trace_.hook_t += ticks() - t0;
  }
  void receive(const sim::MessagePayload& msg) override {
    const std::int64_t t0 = ticks();
    inner_->receive(msg);
    const std::int64_t t = ticks() - t0;
    trace_.hook_t += t;
    trace_.receive_t += t;
    ++trace_.receives;
  }
  void compute(sim::MessageSink& out) override {
    TracedSink sink(out, trace_);
    const std::int64_t t0 = ticks();
    inner_->compute(sink);
    const std::int64_t t = ticks() - t0;
    trace_.hook_t += t;
    trace_.compute_t += t;
    ++trace_.computes;
  }

  std::uint64_t take_checks() override { return inner_->take_checks(); }
  bool detected_insoluble() const override { return inner_->detected_insoluble(); }
  void crash_restart(sim::MessageSink& out) override { inner_->crash_restart(out); }
  void amnesia_restart(sim::MessageSink& out) override { inner_->amnesia_restart(out); }
  void on_heartbeat(sim::MessageSink& out) override { inner_->on_heartbeat(out); }
  void set_seq_floor(std::uint64_t floor) override { inner_->set_seq_floor(floor); }
  std::uint64_t nogoods_generated() const override { return inner_->nogoods_generated(); }
  std::uint64_t redundant_generations() const override {
    return inner_->redundant_generations();
  }
  bool export_capsule(recovery::Checkpoint& out) const override {
    return inner_->export_capsule(out);
  }
  void import_capsule(const recovery::Checkpoint& state, sim::MessageSink& out) override {
    inner_->import_capsule(state, out);
  }
  std::uint64_t learned_count() const override { return inner_->learned_count(); }
  std::uint64_t announce_seq() const override { return inner_->announce_seq(); }
  std::uint64_t work_ops() const override { return inner_->work_ops(); }
  RecoveryStats recovery_stats() const override { return inner_->recovery_stats(); }

 private:
  std::unique_ptr<sim::Agent> inner_;
  HookTrace& trace_;
};

/// The strategy prototype handed to AwcSolver; every per-agent clone times
/// learn() and meters the checks it adds (the mcs subset search).
class TracedStrategy final : public learning::LearningStrategy {
 public:
  TracedStrategy(std::unique_ptr<learning::LearningStrategy> inner, LearnTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  std::optional<Nogood> learn(const learning::DeadendContext& ctx,
                              std::uint64_t& checks) override {
    const std::uint64_t before = checks;
    const std::int64_t t0 = ticks();
    std::optional<Nogood> learned = inner_->learn(ctx, checks);
    trace_.t += ticks() - t0;
    ++trace_.calls;
    trace_.extra_checks += checks - before;
    if (learned.has_value()) {
      ++trace_.learned;
      trace_.learned_lits += learned->size();
    }
    return learned;
  }
  std::size_t record_bound() const override { return inner_->record_bound(); }
  std::unique_ptr<learning::LearningStrategy> clone() const override {
    return std::make_unique<TracedStrategy>(inner_->clone(), trace_);
  }

 private:
  std::unique_ptr<learning::LearningStrategy> inner_;
  LearnTrace& trace_;
};

// ---------------------------------------------------------------------------
// The trial set.

struct Trial {
  std::size_t instance = 0;  // index into World::instances
  std::size_t solver = 0;    // index into World::solvers
  int n = 0;
  int instance_index = 0;
  int init = 0;
  std::size_t runner = 0;
  FullAssignment initial;
  Rng rng;
};

/// One runner bound to one instance.
struct Solver {
  std::unique_ptr<awc::AwcSolver> awc;
  std::unique_ptr<db::DbSolver> db;

  std::vector<std::unique_ptr<sim::Agent>> make_agents(const FullAssignment& initial,
                                                       const Rng& rng) const {
    return awc != nullptr ? awc->make_agents(initial, rng) : db->make_agents(initial, rng);
  }
};

struct SetupTimes {
  double instance_ms = 0.0;
  double distribute_ms = 0.0;
  double construct_ms = 0.0;
};

/// Everything the measured loop needs: instances, one solver per (instance,
/// runner) and the trials. Solvers hold references into `instances` and
/// `prototypes`, so a World is built in place and never copied or moved.
struct World {
  std::vector<DistributedProblem> instances;
  std::vector<std::unique_ptr<learning::LearningStrategy>> prototypes;  // per runner
  std::vector<Solver> solvers;
  std::vector<Trial> trials;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

std::uint64_t instance_seed(std::uint64_t seed, int n, int index) {
  // analysis::make_instance's seeding, so the instances match the harness's.
  return seed ^ (0xa0761d6478bd642fULL * static_cast<std::uint64_t>(index + 1)) ^
         (0xe7037ed1a0b428dbULL * static_cast<std::uint64_t>(n));
}

std::uint64_t trial_seed(std::uint64_t seed, int index, int init) {
  // analysis::run_comparison's per-cell seeding.
  return seed ^ (0x8ebc6af09c88c6e3ULL * static_cast<std::uint64_t>(index + 1)) ^
         (0x589965cc75374cc3ULL * static_cast<std::uint64_t>(init + 1));
}

/// Generate and distribute every instance, construct one solver per
/// (instance, runner), draw every trial's initial assignment, and build (then
/// drop) every trial's agents. `learn` non-null selects traced strategies.
void build_world(const SimSpec& spec, std::uint64_t seed, LearnTrace* learn, World& world,
                 SetupTimes& times) {
  const std::size_t num_instances = spec.ns.size() * static_cast<std::size_t>(spec.instances);
  world.instances.reserve(num_instances);
  // Instance-major over n, so any prefix of the trial order mixes every n
  // and runner.
  std::vector<std::pair<int, int>> keys;  // (n, index) per instance slot
  for (int index = 0; index < spec.instances; ++index) {
    for (int n : spec.ns) {
      Rng rng(instance_seed(seed, n, index));
      const auto t0 = Clock::now();
      if (spec.family == analysis::ProblemFamily::kSat3) {
        const gen::SatInstance inst = gen::generate_sat3(n, rng);
        const auto t1 = Clock::now();
        world.instances.push_back(gen::distribute(inst));
        times.instance_ms += ms_between(t0, t1);
        times.distribute_ms += ms_between(t1, Clock::now());
      } else {
        const gen::ColoringInstance inst = gen::generate_coloring3(n, rng);
        const auto t1 = Clock::now();
        world.instances.push_back(gen::distribute(inst));
        times.instance_ms += ms_between(t0, t1);
        times.distribute_ms += ms_between(t1, Clock::now());
      }
      keys.emplace_back(n, index);
    }
  }

  const auto t0 = Clock::now();
  for (const RunnerSpec& runner : spec.runners) {
    if (runner.strategy.empty()) {
      world.prototypes.push_back(nullptr);
    } else if (learn != nullptr) {
      world.prototypes.push_back(
          std::make_unique<TracedStrategy>(learning::make_strategy(runner.strategy), *learn));
    } else {
      world.prototypes.push_back(learning::make_strategy(runner.strategy));
    }
  }
  world.solvers.reserve(num_instances * spec.runners.size());
  for (const DistributedProblem& dp : world.instances) {
    for (std::size_t r = 0; r < spec.runners.size(); ++r) {
      Solver solver;
      if (world.prototypes[r] != nullptr) {
        awc::AwcOptions options;
        options.max_cycles = spec.max_cycles;
        solver.awc = std::make_unique<awc::AwcSolver>(dp, *world.prototypes[r], options);
      } else {
        db::DbOptions options;
        options.max_cycles = spec.max_cycles;
        solver.db = std::make_unique<db::DbSolver>(dp, options);
      }
      world.solvers.push_back(std::move(solver));
    }
  }

  for (std::size_t i = 0; i < world.instances.size(); ++i) {
    const auto [n, index] = keys[i];
    const Problem& p = world.instances[i].problem();
    for (int init = 0; init < spec.inits; ++init) {
      Rng rng(trial_seed(seed, index, init));
      FullAssignment initial(static_cast<std::size_t>(p.num_variables()));
      for (VarId v = 0; v < p.num_variables(); ++v) {
        initial[static_cast<std::size_t>(v)] =
            static_cast<Value>(rng.index(static_cast<std::size_t>(p.domain_size(v))));
      }
      for (std::size_t r = 0; r < spec.runners.size(); ++r) {
        Trial trial;
        trial.instance = i;
        trial.solver = i * spec.runners.size() + r;
        trial.n = n;
        trial.instance_index = index;
        trial.init = init;
        trial.runner = r;
        trial.initial = initial;
        trial.rng = rng.derive(r + 1);
        world.trials.push_back(std::move(trial));
      }
    }
  }
  for (const Trial& trial : world.trials) {
    world.solvers[trial.solver].make_agents(trial.initial, trial.rng);
  }
  times.construct_ms += ms_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Paper-metric digests.

std::string digest_line(const SimSpec& spec, const Trial& trial, const sim::RunMetrics& m) {
  std::ostringstream line;
  line << trial.n << ' ' << trial.instance_index << ' ' << trial.init << ' '
       << spec.runners[trial.runner].label << ' ' << m.cycles << ' ' << m.maxcck << ' '
       << m.total_checks << ' ' << (m.solved ? 1 : 0);
  return line.str();
}

std::string digest_path(const Request& request, const SimSpec& spec) {
  const std::string suffix = request.size == "smoke" ? ".smoke.txt" : ".txt";
  return request.digest_dir + "/" + spec.name + suffix;
}

/// The committed per-trial digests for this workload, or nullopt when the
/// run is not at the default seed (references exist only there).
std::optional<std::vector<std::string>> load_digests(const Request& request,
                                                     const SimSpec& spec,
                                                     WorkloadResult& out) {
  if (request.digest_dir.empty() || !request.write_digests.empty() ||
      request.seed != kDefaultSeed) {
    return std::nullopt;
  }
  const std::string path = digest_path(request, spec);
  std::ifstream in(path);
  if (!in) {
    out.invalidate("cannot read digest file " + path);
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// The measured loop.

struct TrialRecord {
  std::size_t index = 0;  // into World::trials
  double wall_ms = 0.0;
  sim::RunMetrics metrics;
};

/// Per-layer totals of the traced phase.
struct SimTrace {
  HookTrace awc;
  HookTrace db;
  LearnTrace learn;
  std::int64_t run_ns = 0;
  std::int64_t construct_ns = 0;  // make_agents + wrapping, per trial
  std::int64_t teardown_ns = 0;
  std::int64_t check_ns = 0;
  std::uint64_t allocs = 0;  // heap allocations inside SyncEngine::run
  std::uint64_t learned_resident = 0;
  std::uint64_t max_nogood_len = 0;
  std::uint64_t awc_trials = 0;
};

class SimRunner {
 public:
  SimRunner(const SimSpec& spec, const Request& request, const World& world,
            WorkloadResult& out)
      : spec_(spec), out_(out), digests_(load_digests(request, spec, out)),
        seen_(world.trials.size()) {
    if (digests_.has_value() && digests_->size() != world.trials.size()) {
      out_.invalidate("digest file has " + std::to_string(digests_->size()) +
                      " trials, the workload has " + std::to_string(world.trials.size()));
      digests_.reset();
    }
  }

  /// Run trials in set order, wrapping around, until `budget` has passed
  /// (at least one trial). Untraced: the end-to-end measurement.
  std::vector<TrialRecord> run_for(const World& world, std::chrono::duration<double> budget) {
    std::vector<TrialRecord> records;
    const auto start = Clock::now();
    do {
      records.push_back(run_trial(world, next_, nullptr));
      next_ = (next_ + 1) % world.trials.size();
    } while (Clock::now() - start < budget);
    return records;
  }

  /// Run the given trials again with every agent wrapped, accumulating the
  /// per-layer totals into `trace`.
  std::vector<TrialRecord> run_traced(const World& world, const std::vector<TrialRecord>& plan,
                                      SimTrace& trace) {
    std::vector<TrialRecord> records;
    records.reserve(plan.size());
    for (const TrialRecord& r : plan) records.push_back(run_trial(world, r.index, &trace));
    return records;
  }

  /// Run every trial of the set once and return their digest lines (what
  /// --write-digests stores).
  std::vector<std::string> digest_all(const World& world) {
    for (std::size_t i = 0; i < world.trials.size(); ++i) {
      if (seen_[i].empty()) run_trial(world, i, nullptr);
    }
    return seen_;
  }

 private:
  TrialRecord run_trial(const World& world, std::size_t i, SimTrace* trace) {
    const Trial& trial = world.trials[i];
    const DistributedProblem& dp = world.instances[trial.instance];
    const bool is_awc = world.solvers[trial.solver].awc != nullptr;

    const auto t_construct = Clock::now();
    std::vector<std::unique_ptr<sim::Agent>> agents =
        world.solvers[trial.solver].make_agents(trial.initial, trial.rng);
    if (trace != nullptr) {
      HookTrace& layer = is_awc ? trace->awc : trace->db;
      for (auto& agent : agents) {
        agent = std::make_unique<TracedAgent>(std::move(agent), layer);
      }
    }
    auto engine = std::make_unique<sim::SyncEngine>(dp.problem(), std::move(agents));

    const std::uint64_t allocs0 = allocations();
    const auto t0 = Clock::now();
    sim::RunResult result = engine->run(spec_.max_cycles);
    const auto t1 = Clock::now();
    const std::uint64_t allocs1 = allocations();

    TrialRecord record;
    record.index = i;
    record.wall_ms = ms_between(t0, t1);
    record.metrics = result.metrics;

    if (trace != nullptr) {
      trace->construct_ns += ns_between(t_construct, t0);
      trace->run_ns += ns_between(t0, t1);
      trace->allocs += allocs1 - allocs0;
      if (is_awc) {
        ++trace->awc_trials;
        for (const auto& agent : engine->agents()) {
          const auto& wrapped = static_cast<const TracedAgent&>(*agent);
          const auto& awc_agent = dynamic_cast<const awc::AwcAgent&>(wrapped.inner());
          trace->learned_resident += awc_agent.store().learned_count();
          trace->max_nogood_len = std::max<std::uint64_t>(
              trace->max_nogood_len, awc_agent.store().max_nogood_size());
        }
      }
    }

    check(trial, i, dp, result);

    const auto t_teardown = Clock::now();
    engine.reset();
    if (trace != nullptr) {
      trace->check_ns += ns_between(t1, t_teardown);
      trace->teardown_ns += ns_between(t_teardown, Clock::now());
    }
    return record;
  }

  void check(const Trial& trial, std::size_t i, const DistributedProblem& dp,
             const sim::RunResult& result) {
    ++out_.attempted;
    const std::string line = digest_line(spec_, trial, result.metrics);
    std::string problem;
    if (result.metrics.solved && !validate_solution(dp.problem(), result.assignment).ok) {
      problem = "unvalidated solved result";
    } else if (result.metrics.insoluble) {
      problem = "insolubility derived on a solvable instance";
    } else if (digests_.has_value() && (*digests_)[i] != line) {
      problem = "paper metrics differ from the committed digest '" + (*digests_)[i] + "'";
    } else if (!seen_[i].empty() && seen_[i] != line) {
      problem = "paper metrics differ from this trial's first run '" + seen_[i] + "'";
    }
    if (seen_[i].empty()) seen_[i] = line;
    if (!problem.empty()) {
      out_.fail("trial " + std::to_string(i) + " (" + line + "): " + problem);
      out_.correct = false;
    }
  }

  const SimSpec& spec_;
  WorkloadResult& out_;
  std::optional<std::vector<std::string>> digests_;
  std::vector<std::string> seen_;  // digest line of each trial's first run
  std::size_t next_ = 0;           // where run_for continues
};

/// Sums over a list of trial records.
struct Totals {
  double wall_ms = 0.0;
  double checks = 0.0;
  double messages = 0.0;
  double cycles = 0.0;
  double work_ops = 0.0;
  std::vector<double> trial_ms;
  /// Each trial's messages per second, by (n, runner) cell.
  std::map<std::pair<int, std::size_t>, std::vector<double>> cell_rates;

  Totals(const World& world, const std::vector<TrialRecord>& records) {
    for (const TrialRecord& r : records) {
      const Trial& trial = world.trials[r.index];
      wall_ms += r.wall_ms;
      checks += static_cast<double>(r.metrics.total_checks);
      messages += static_cast<double>(r.metrics.messages);
      cycles += static_cast<double>(r.metrics.cycles);
      work_ops += static_cast<double>(r.metrics.work_ops);
      trial_ms.push_back(r.wall_ms);
      cell_rates[{trial.n, trial.runner}].push_back(
          1000.0 * ratio(static_cast<double>(r.metrics.messages), r.wall_ms));
    }
  }

  /// The geometric mean over (n, runner) cells of the median trial's rate in
  /// each. Algorithms differ several-fold in per-message cost, so one median
  /// over all trials would sit between their modes and jump with the mix; a
  /// ratio of sums would be decided by the seed's few longest trials.
  double msgs_per_s() const {
    double log_sum = 0.0;
    for (const auto& [cell, rates] : cell_rates) log_sum += std::log(median(rates));
    return cell_rates.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(cell_rates.size()));
  }
};

/// Set-up rounds: build the world `rounds` times and keep the last one.
/// Returns the per-round times.
std::vector<SetupTimes> set_up(const SimSpec& spec, std::uint64_t seed, int rounds,
                               std::unique_ptr<World>& world) {
  std::vector<SetupTimes> times;
  for (int round = 0; round < rounds; ++round) {
    world.reset();  // the previous round's world is not part of this round
    world = std::make_unique<World>();
    SetupTimes t;
    build_world(spec, seed, nullptr, *world, t);
    times.push_back(t);
  }
  return times;
}

void write_digests(const Request& request, const SimSpec& spec,
                   const std::vector<std::string>& lines, WorkloadResult& out) {
  std::ofstream file(request.write_digests);
  file << "# " << spec.name << " size=" << request.size << " seed=" << request.seed
       << ": n instance init runner cycles maxcck total_checks solved\n";
  for (const std::string& line : lines) file << line << '\n';
  if (!file) out.invalidate("cannot write digest file " + request.write_digests);
}

constexpr int kSetupRounds = 3;

WorkloadResult run_sim(const SimSpec& spec, const Request& request) {
  WorkloadResult out;
  std::unique_ptr<World> world;
  const std::vector<SetupTimes> setup = set_up(spec, request.seed, kSetupRounds, world);
  SimRunner runner(spec, request, *world, out);
  if (!request.write_digests.empty()) {
    write_digests(request, spec, runner.digest_all(*world), out);
    return out;
  }

  // Untraced: the end-to-end numbers (and the traced run's baseline).
  const auto budget = std::chrono::duration<double>(request.trace ? request.seconds / 2.0
                                                                  : request.seconds);
  const std::vector<TrialRecord> plan = runner.run_for(*world, budget);
  const Totals plain(*world, plan);

  if (!request.trace) {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup) {
      setup_s.push_back((t.instance_ms + t.distribute_ms + t.construct_ms) / 1000.0);
    }
    report_setup(setup_s, out);
    out.put("msgs_per_s", plain.msgs_per_s());
    return out;
  }

  // Traced phase: a fresh traced set-up plus the very trials the untraced
  // phase ran, so the two walls compare identical work.
  SimTrace trace;
  const TickScale scale;
  const auto traced_start = Clock::now();
  World traced;
  SetupTimes traced_setup;
  build_world(spec, request.seed, &trace.learn, traced, traced_setup);
  const Totals tr(traced, runner.run_traced(traced, plan, trace));
  const double traced_wall_ms = ms_between(traced_start, Clock::now());

  const double ns_per_tick = scale.ns_per_tick();
  const auto ms = [ns_per_tick](std::int64_t t) { return t * ns_per_tick / 1e6; };
  const HookTrace& a = trace.awc;
  const HookTrace& d = trace.db;
  const LearnTrace& l = trace.learn;
  const double awc_self_ms = ms(a.hook_t - a.send_t - l.t);
  const double db_self_ms = ms(d.hook_t - d.send_t);
  const double engine_self_ms = trace.run_ns / 1e6 - ms(a.hook_t + d.hook_t);
  Ledger ledger(request.ledger_drop);
  ledger.add("gen.instance", traced_setup.instance_ms);
  ledger.add("gen.distribute", traced_setup.distribute_ms);
  ledger.add("setup.construct", traced_setup.construct_ms + trace.construct_ns / 1e6);
  ledger.add("sim.engine_self", engine_self_ms);
  ledger.add("sim.send", ms(a.send_t + d.send_t));
  ledger.add("awc.self", awc_self_ms);
  ledger.add("learning.learn", ms(l.t));
  ledger.add("db.self", db_self_ms);
  ledger.add("sim.teardown", trace.teardown_ns / 1e6);
  ledger.add("bench.check", trace.check_ns / 1e6);
  ledger.reconcile(traced_wall_ms, out);

  // Per-layer values are per trial unless named as a ratio.
  const double n = static_cast<double>(tr.trial_ms.size());
  std::vector<double> instance_ms;
  std::vector<double> distribute_ms;
  for (const SetupTimes& t : setup) {
    instance_ms.push_back(t.instance_ms);
    distribute_ms.push_back(t.distribute_ms);
  }
  out.put("gen.instance_ms", median(instance_ms));
  out.put("gen.distribute_ms", median(distribute_ms));

  out.put("sim.engine_self_ms", ratio(engine_self_ms, n));
  out.put("sim.msgs", ratio(tr.messages, n));
  out.put("sim.cycles", ratio(tr.cycles, n));
  out.put("sim.send_ns_per_msg", ratio((a.send_t + d.send_t) * ns_per_tick, a.sends + d.sends));
  out.put("sim.allocs_per_msg", ratio(static_cast<double>(trace.allocs), tr.messages));

  out.put("awc.receive_ns_per_msg", ratio(a.receive_t * ns_per_tick, a.receives));
  out.put("awc.compute_ns_per_call", ratio(a.compute_t * ns_per_tick, a.computes));
  out.put("awc.compute_calls", ratio(a.computes, n));
  out.put("awc.self_ms", ratio(awc_self_ms, n));

  out.put("learning.learn_calls", ratio(l.calls, n));
  out.put("learning.learn_ns_per_call", ratio(l.t * ns_per_tick, l.calls));
  out.put("learning.learned_len_mean", ratio(l.learned_lits, l.learned));
  out.put("learning.extra_checks", ratio(l.extra_checks, n));

  out.put("csp.work_ops", ratio(tr.work_ops, n));
  out.put("csp.work_ops_per_msg", ratio(tr.work_ops, tr.messages));
  out.put("csp.work_ops_per_check", ratio(tr.work_ops, tr.checks));
  out.put("csp.learned_resident", ratio(trace.learned_resident, trace.awc_trials));
  out.put("csp.max_nogood_len", static_cast<double>(trace.max_nogood_len));

  out.put("db.receive_ns_per_msg", ratio(d.receive_t * ns_per_tick, d.receives));
  out.put("db.compute_ns_per_call", ratio(d.compute_t * ns_per_tick, d.computes));
  out.put("db.compute_calls", ratio(d.computes, n));

  out.put("trace.overhead_ms", tr.wall_ms - plain.wall_ms);
  out.put("trace.overhead_pct", 100.0 * ratio(tr.wall_ms - plain.wall_ms, plain.wall_ms));
  out.put("e2e.ns_per_check", 1e6 * ratio(plain.wall_ms, plain.checks));
  put_trial_diagnostics(plain.trial_ms, out);
  return out;
}

}  // namespace

WorkloadResult run_sat3_learning(const Request& request) {
  return run_sim(sat3_spec(request.size), request);
}

WorkloadResult run_coloring_db(const Request& request) {
  return run_sim(coloring_spec(request.size), request);
}

}  // namespace perfbench
