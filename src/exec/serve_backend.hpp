// The serving-path backend: serve::ReplicaPool behind the EvalBackend seam.
// A campaign trial stream becomes pool traffic — each trial's plan is a
// serve::FaultTimeline window over that trial's request ids, every probe is
// one request, and the pool's multi-worker drain serves them. The pool's
// determinism contract (a request's result is a pure function of
// (seed, id, input, timeline)) is what makes campaign results bit-identical
// across replica counts.
#pragma once

#include <memory>

#include "exec/served_backend.hpp"
#include "serve/pool.hpp"

namespace wnf::exec {

/// Shape of one serve-backed execution path.
struct ServeBackendOptions {
  std::size_t replicas = 1;  ///< worker threads (0 = hardware concurrency)
  dist::SimConfig sim;       ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
};

/// Wraps serve::ReplicaPool for batched, multi-worker campaign trials.
/// run_trials builds a fresh pool per call (see ServedBackend for the
/// stream discipline). The serial install/evaluate path keeps its own
/// single pool whose request stream advances across evaluate() calls —
/// successive probes are successive requests.
class ServeBackend final : public ServedBackend<serve::ReplicaPool> {
 public:
  explicit ServeBackend(const nn::FeedForwardNetwork& net,
                        ServeBackendOptions options = {});

  std::string_view name() const override { return "serve"; }
  std::vector<TrialResult> run_trials(std::span<const Trial> trials) override;

  const ServeBackendOptions& options() const { return options_; }

 private:
  std::unique_ptr<serve::ReplicaPool> make_server(
      std::size_t queue_capacity) const override;

  ServeBackendOptions options_;
};

}  // namespace wnf::exec
