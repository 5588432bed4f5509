// The cost ledger of a traced run: exclusive (self) wall time per layer,
// reconciled against the wall clock of the whole traced phase.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/// The share of the traced wall that may stay unattributed to any layer.
/// What remains is the benchmark loop itself and the timer calls.
inline constexpr double kLedgerTolerance = 0.05;

class Ledger {
 public:
  /// `drop` names a layer to leave out (Request::ledger_drop).
  explicit Ledger(std::string drop = "") : drop_(std::move(drop)) {}

  /// Add `ms` of exclusive time to `layer` (lines keep first-use order).
  void add(const std::string& layer, double ms);

  /// Compare the layer sum with `wall_ms`, the outer clock of the traced
  /// phase. Records ledger.* metrics on `out` and invalidates the run when
  /// more than kLedgerTolerance of the wall is unattributed, or when the
  /// layers claim more time than the wall (a double-counted layer).
  void reconcile(double wall_ms, WorkloadResult& out) const;

  double total_ms() const;

 private:
  std::string drop_;
  std::vector<std::pair<std::string, double>> lines_;
};

}  // namespace perfbench
