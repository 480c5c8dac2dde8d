// The executor side of every serving deployment: one replica step, run per
// request by ReplicaPool worker threads and by transport worker processes
// alike. A NetworkSimulator is not thread-safe, so the scaling unit of both
// runtimes is the replica — a simulator with preallocated workspaces plus
// the timeline segment it currently has installed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "fault/plan.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"

namespace wnf::serve {

/// One executor's serving state. Given the request's segment, its plan,
/// input and split-off Rng, step() is a pure function of those — which is
/// what lets any replica, thread or process, serve any request.
class Replica {
 public:
  /// Binds to `net` (kept by reference; must outlive the replica).
  /// `wait_counts` is the realized straggler cut (size L+1; empty = full
  /// waits).
  Replica(const nn::FeedForwardNetwork& net, const dist::SimConfig& sim,
          const dist::LatencyModel& latency,
          std::vector<std::size_t> wait_counts);

  /// Forgets the installed segment, so the next step re-installs its plan.
  /// For a swapped segment table, whose indices mean nothing any more.
  void reset_segment() { segment_ = kNoSegment; }

  /// Serves one request: installs `plan` when `segment` differs from the
  /// installed one (a run of requests in one segment pays one install),
  /// draws every latency from `rng`, and evaluates — boosted when a cut is
  /// set.
  dist::SimResult step(std::size_t segment, const fault::FaultPlan& plan,
                       std::span<const double> x, Rng rng);

 private:
  static constexpr std::size_t kNoSegment = ~std::size_t{0};

  dist::NetworkSimulator sim_;
  dist::LatencyModel latency_;
  std::vector<std::size_t> wait_counts_;
  std::size_t segment_ = kNoSegment;
};

}  // namespace wnf::serve
