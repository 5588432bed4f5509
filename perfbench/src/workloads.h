// The four benchmark workloads (README.md explains why each exists).
//
// Every workload runs in this one process and returns its metrics: with
// Request::trace off the end-to-end set, with it on the per-layer set.
#pragma once

#include "common.h"

namespace perfbench {

/// Table-2 protocol on planted 3SAT (d3s, m = 4.3n), n in {100, 150}: AWC
/// under Rslv, Mcs and No learning on the synchronous simulator.
WorkloadResult run_sat3_learning(const Request& request);

/// Table-8 protocol on 3-coloring (d3c, m = 2.7n), n in {120, 150}: DB and
/// AWC+3rdRslv on the synchronous simulator.
WorkloadResult run_coloring_db(const Request& request);

/// A fixed set of d3s n=100 AWC+Rslv jobs solved one after another through
/// net::serve with 3 worker threads, over the in-process transport
/// (`tcp` false) or TCP loopback (`tcp` true).
WorkloadResult run_serve(const Request& request, bool tcp);

}  // namespace perfbench
