// Heap allocation counter: this binary replaces the global operator new so
// every allocation made by the solver libraries it links is counted.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations (calls to any operator new) made by this process so far.
std::uint64_t allocations();

}  // namespace perfbench
