// discsp_perfbench: the repository benchmark (README.md in this directory).
//
//   discsp_perfbench --workload sat3-learning|coloring-db|serve-inproc|serve-tcp
//                    [--seed N] [--seconds N] [--trace 0|1] [--size full|smoke]
//                    [--digest-dir DIR] [--write-digests FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Failures and the traced run's ledger go to standard error.
// Exit status: 0 on a clean run, 1 when any trial or job failed or the run
// is invalid, 2 on bad flags.
#include <charconv>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0 on every workload.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"msgs_per_s", "1/s"},
    {"ok_frac", "fraction"},
};

// Printed with --trace 1 on every workload; a layer the workload never
// enters reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"gen.instance_ms", "ms"},
    {"gen.distribute_ms", "ms"},
    {"sim.engine_self_ms", "ms/trial"},
    {"sim.msgs", "msgs/trial"},
    {"sim.cycles", "cycles/trial"},
    {"sim.send_ns_per_msg", "ns/msg"},
    {"sim.allocs_per_msg", "allocs/msg"},
    {"awc.receive_ns_per_msg", "ns/msg"},
    {"awc.compute_ns_per_call", "ns/call"},
    {"awc.compute_calls", "calls/trial"},
    {"awc.self_ms", "ms/trial"},
    {"learning.learn_calls", "calls/trial"},
    {"learning.learn_ns_per_call", "ns/call"},
    {"learning.learned_len_mean", "literals"},
    {"learning.extra_checks", "checks/trial"},
    {"csp.work_ops", "ops/trial"},
    {"csp.work_ops_per_msg", "ops/msg"},
    {"csp.work_ops_per_check", "ops/check"},
    {"csp.learned_resident", "nogoods/trial"},
    {"csp.max_nogood_len", "literals"},
    {"db.receive_ns_per_msg", "ns/msg"},
    {"db.compute_ns_per_call", "ns/call"},
    {"db.compute_calls", "calls/trial"},
    {"net.coord.frames_in", "frames/job"},
    {"net.coord.frames_out", "frames/job"},
    {"net.coord.send_ns_per_frame", "ns/frame"},
    {"net.coord.recv_ns_per_frame", "ns/frame"},
    {"net.coord.pump_ms", "ms/job"},
    {"net.coord.self_ms", "ms/job"},
    {"net.worker.frames_in", "frames/job"},
    {"net.worker.frames_out", "frames/job"},
    {"net.worker.send_ns_per_frame", "ns/frame"},
    {"net.worker.pump_ms", "ms/job"},
    {"net.worker.self_ms", "ms/job"},
    {"net.frames_per_msg", "frames/msg"},
    {"net.msgs_per_job", "msgs/job"},
    {"net.connect_ms", "ms/connect"},
    {"net.dropped_frames", "frames/job"},
    {"net.retransmissions", "retx/job"},
    {"net.job_ms_p50", "ms"},
    {"net.job_ms_tail", "ms"},
    {"e2e.ns_per_check", "ns"},
    {"e2e.trials_per_s", "1/s"},
    {"e2e.trial_ms_p50", "ms"},
    {"e2e.trial_ms_tail", "ms"},
    {"e2e.trial_tail_pct", "%"},
    {"e2e.trial_samples", "count"},
    {"mem.peak_rss_mb", "MiB"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"ledger.wall_ms", "ms"},
    {"ledger.unattributed_pct", "%"},
};

const std::vector<std::string> kWorkloads = {"sat3-learning", "coloring-db", "serve-inproc",
                                             "serve-tcp"};

std::uint64_t parse_uint(const std::string& flag, const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || ptr != last) {
    throw UsageError(flag + " expects a whole number, got '" + text + "'");
  }
  if (value < lo || value > hi) {
    throw UsageError(flag + " must lie in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got " + text);
  }
  return value;
}

Request parse(int argc, char** argv) {
  Request request;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError(flag.rfind("--", 0) == 0 ? flag + " needs a value"
                                                : "unexpected argument '" + flag + "'");
    }
    if (flag == "--workload") {
      bool known = false;
      for (const std::string& w : kWorkloads) known = known || w == value;
      if (!known) throw UsageError("unknown workload '" + value + "'");
      request.workload = value;
    } else if (flag == "--seed") {
      request.seed = parse_uint(flag, value, 0, (1ULL << 63) - 1);
    } else if (flag == "--seconds") {
      request.seconds = static_cast<int>(parse_uint(flag, value, 1, 60));
    } else if (flag == "--trace") {
      request.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") {
        throw UsageError("--size must be full or smoke, got '" + value + "'");
      }
      request.size = value;
    } else if (flag == "--digest-dir") {
      request.digest_dir = value;
    } else if (flag == "--write-digests") {
      request.write_digests = value;
    } else if (flag == "--ledger-drop") {
      request.ledger_drop = value;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  if (request.workload.empty()) throw UsageError("--workload is required");
  if (!request.write_digests.empty() && request.workload.rfind("serve-", 0) == 0) {
    throw UsageError("--write-digests applies to the simulator workloads only");
  }
  return request;
}

std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

/// Keep exactly the metric set of this mode, in its order. A missing
/// per-layer metric belongs to a layer the workload never enters (0); a
/// missing end-to-end metric or an unlisted one is a benchmark bug.
void finalize(const Request& request, WorkloadResult& result) {
  if (!request.trace) {
    const double ok =
        result.attempted > 0
            ? 1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted)
            : 0.0;
    result.put("ok_frac", ok);
  } else {
    result.put("mem.peak_rss_mb", peak_rss_mb());
  }
  const std::vector<MetricDef>& defs = request.trace ? kPerLayer : kEndToEnd;
  std::map<std::string, double> kept;
  for (const MetricDef& def : defs) {
    double& value = kept[def.name];
    auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) {
      if (!request.trace) result.invalidate(std::string("metric not produced: ") + def.name);
    } else {
      value = it->second;
      result.metrics.erase(it);
    }
    if (!std::isfinite(value)) {
      result.invalidate(std::string("metric is not finite: ") + def.name);
      value = 0.0;
    }
  }
  for (const auto& [name, metric] : result.metrics) {
    result.invalidate("metric not in the benchmark's list: " + name);
  }
  result.metrics = std::move(kept);
  if (result.attempted == 0) result.invalidate("no trial or job ran");
}

void print(const Request& request, const WorkloadResult& result) {
  for (const std::string& problem : result.problems) {
    std::cerr << request.workload << ": " << problem << '\n';
  }
  const std::vector<MetricDef>& defs = request.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const double value = result.metrics.at(def.name);
    json += first ? "\"" : ", \"";
    json += def.name;
    json += "\": {\"value\": ";
    json += number(value);
    json += ", \"unit\": \"";
    json += def.unit;
    json += "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Request request;
  try {
    request = parse(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  WorkloadResult result;
  try {
    if (request.workload == "sat3-learning") {
      result = run_sat3_learning(request);
    } else if (request.workload == "coloring-db") {
      result = run_coloring_db(request);
    } else {
      result = run_serve(request, request.workload == "serve-tcp");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << request.workload << ": " << e.what() << '\n';
    return 1;
  }
  if (!request.write_digests.empty()) {
    for (const std::string& problem : result.problems) std::cerr << problem << '\n';
    if (!result.correct) return 1;
    std::cout << "wrote " << result.attempted << " trial digests to " << request.write_digests
              << '\n';
    return 0;
  }
  finalize(request, result);
  print(request, result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
