// Shared plumbing of the benchmark binary: the run request parsed from the
// command line, the result every workload returns, sample statistics, and
// the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Timestamps for the tracing decorators, which take two per traced call:
/// the x86 time-stamp counter where there is one (about half the cost of
/// steady_clock::now() on a KVM guest), else steady_clock nanoseconds.
inline std::int64_t ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return Clock::now().time_since_epoch() / std::chrono::nanoseconds(1);
#endif
}

/// Converts ticks() differences to nanoseconds, calibrated against
/// steady_clock over the interval since construction (a traced phase lasts
/// seconds, so the ratio is exact to well under a percent).
class TickScale {
 public:
  TickScale() : ticks0_(ticks()), clock0_(Clock::now()) {}
  double ns_per_tick() const {
    const std::int64_t dt = ticks() - ticks0_;
    return dt > 0 ? static_cast<double>(ns_between(clock0_, Clock::now())) / dt : 1.0;
  }

 private:
  std::int64_t ticks0_;
  Clock::time_point clock0_;
};

/// The seed whose per-trial paper metrics are committed under digests/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Bad command-line input. main() prints it as one line and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Request {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  /// "full" (the benchmark) or "smoke" (minimal inputs, for tests).
  std::string size = "full";
  /// Directory holding the committed per-trial digests ("" = no check).
  std::string digest_dir;
  /// When nonempty: write this run's per-trial digests here and skip the
  /// comparison (how the committed references are produced).
  std::string write_digests;
  /// Test hook: leave this layer out of the traced run's ledger, which must
  /// then fail to reconcile.
  std::string ledger_drop;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run itself is invalid (e.g. the ledger does not
  /// reconcile, or the digest file does not match the trial set).
  bool correct = true;
  /// Metric values by name; main.cpp owns the list of names and units.
  std::map<std::string, double> metrics;
  /// One line per failure, printed to stderr.
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
  void invalidate(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void put(const std::string& name, double value) { metrics[name] = value; }
};

/// num / den, or 0 when den is 0 (a layer the workload never entered).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The highest percentile (at most 90) that has at least ten samples above
/// it, as a fraction in [0.5, 0.9]; 0.5 when the sample is too small.
double tail_quantile_level(std::size_t samples);

/// The e2e.* diagnostics of a traced run, from the untraced trial (or job)
/// walls it measured first: rate, median, tail and sample count.
void put_trial_diagnostics(const std::vector<double>& trial_ms, WorkloadResult& out);

/// Record setup_s, the median of the set-up rounds' times (seconds), and
/// list the rounds on stderr.
void report_setup(const std::vector<double>& round_s, WorkloadResult& out);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
