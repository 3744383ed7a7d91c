/// \file workloads.hpp
/// \brief The benchmark's workloads (see perfbench/METRICS.md).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Mixed read/mutate traffic from serve::run_loadgen through a fresh
/// decycle_serve, one tenant per lab family.
[[nodiscard]] Result run_serve_mixed(const Options& options);

/// Read-only tester/edge_checker queries on four n=10000 tenants, one
/// connection per tenant, one query in five repeating an earlier one.
[[nodiscard]] Result run_serve_reads(const Options& options);

/// A shared-graph decycle_lab matrix at --threads=4.
[[nodiscard]] Result run_lab_matrix(const Options& options);

}  // namespace perfbench
