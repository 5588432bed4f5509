#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double tail_quantile_level(std::size_t samples) {
  if (samples <= 20) return 0.5;
  const double level = 1.0 - 10.0 / static_cast<double>(samples);
  return std::clamp(std::floor(level * 100.0) / 100.0, 0.5, 0.9);
}

void put_trial_diagnostics(const std::vector<double>& trial_ms, WorkloadResult& out) {
  double total_ms = 0.0;
  for (double ms : trial_ms) total_ms += ms;
  const double level = tail_quantile_level(trial_ms.size());
  out.put("e2e.trials_per_s", 1000.0 * ratio(static_cast<double>(trial_ms.size()), total_ms));
  out.put("e2e.trial_ms_p50", median(trial_ms));
  out.put("e2e.trial_ms_tail", quantile(trial_ms, level));
  out.put("e2e.trial_tail_pct", 100.0 * level);
  out.put("e2e.trial_samples", static_cast<double>(trial_ms.size()));
}

void report_setup(const std::vector<double>& round_s, WorkloadResult& out) {
  std::cerr << "set-up rounds:";
  for (double s : round_s) std::cerr << ' ' << s << " s";
  std::cerr << '\n';
  out.put("setup_s", median(round_s));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
