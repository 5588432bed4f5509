#include "ledger.h"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

void Ledger::add(const std::string& layer, double ms) {
  if (layer == drop_) return;
  for (auto& [name, total] : lines_) {
    if (name == layer) {
      total += ms;
      return;
    }
  }
  lines_.emplace_back(layer, ms);
}

double Ledger::total_ms() const {
  double sum = 0.0;
  for (const auto& line : lines_) sum += line.second;
  return sum;
}

void Ledger::reconcile(double wall_ms, WorkloadResult& out) const {
  const double unattributed = wall_ms - total_ms();
  const double share = wall_ms > 0.0 ? unattributed / wall_ms : 0.0;
  out.put("ledger.wall_ms", wall_ms);
  out.put("ledger.unattributed_pct", 100.0 * share);
  // The ledger goes to stderr so a reader sees where the time went; stdout
  // ends with the one JSON result line.
  std::cerr << "ledger (traced wall " << wall_ms << " ms):\n";
  for (const auto& [name, ms] : lines_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-22s %12.3f ms  %6.2f%%\n", name.c_str(), ms,
                  wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0);
    std::cerr << line;
  }
  char tail[160];
  std::snprintf(tail, sizeof tail, "  %-22s %12.3f ms  %6.2f%% (tolerance %.0f%%)\n",
                "unattributed", unattributed, 100.0 * share, 100.0 * kLedgerTolerance);
  std::cerr << tail;
  if (!(std::abs(share) <= kLedgerTolerance)) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "ledger does not reconcile: %.2f%% of the traced wall unattributed "
                  "(tolerance %.0f%%)",
                  100.0 * share, 100.0 * kLedgerTolerance);
    out.invalidate(why);
  }
}

}  // namespace perfbench
