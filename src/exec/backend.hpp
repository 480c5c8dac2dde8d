// Execution backends: one interface over every way this repository can run
// a fault scenario. The paper lives in the gap between the analytic path
// (fault::Injector + Fep bounds) and the systems path (dist::NetworkSimulator
// messages, serve::ReplicaPool threads, transport::WorkerHost processes); an
// EvalBackend is the seam that lets a campaign, a bench, or a cross-check
// drive any of them interchangeably. A backend binds one network, installs/clears a fault::FaultPlan,
// evaluates probe inputs under it, and reports completion metadata where the
// path has a clock (the Injector does not).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "fault/plan.hpp"
#include "nn/network.hpp"

namespace wnf::fault {
class Injector;
}  // namespace wnf::fault

namespace wnf::exec {

/// One probe evaluation under the installed plan. Backends without a
/// simulated clock (the Injector) report zero completion metadata.
struct ProbeResult {
  double output = 0.0;           ///< Fneu(X) under the installed faults
  double completion_time = 0.0;  ///< simulated time to the output client
  std::size_t resets_sent = 0;   ///< Section V-B reset-message accounting
};

/// One campaign trial: a fault configuration plus the probe inputs to
/// evaluate under it, and their fault-free outputs. An empty plan is a
/// fault-free trial.
struct Trial {
  fault::FaultPlan plan;
  std::vector<std::vector<double>> probes;
  /// nominal_outputs of `probes`, filled by whoever builds the trial
  /// (make_trial), so no backend re-runs the fault-free forward to score it.
  std::vector<double> nominal;
};

/// Outcome of one trial: the damaged evaluation of every probe, plus the
/// trial's worst absolute output error against the fault-free forward pass.
struct TrialResult {
  std::vector<ProbeResult> probes;  ///< per-probe, in input order
  double worst_error = 0.0;         ///< max_i |nominal(x_i) - probes[i].output|
};

/// Interface over one fault-execution path, bound to one network (kept by
/// reference; it must outlive the backend). Backends are stateful and not
/// thread-safe from the caller's side: one driver thread installs plans and
/// evaluates probes. Parallelism lives *inside* run_trials, where each
/// implementation fans trials out its own way (per-worker evaluators for the
/// Injector and simulator, replica traffic for the serving pool) while
/// keeping results bit-identical to the sequential default.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Short stable identifier ("injector", "simulator", "serve",
  /// "transport") for reports.
  virtual std::string_view name() const = 0;

  /// The network this backend is bound to.
  virtual const nn::FeedForwardNetwork& network() const = 0;

  /// Installs `plan` until the next install/clear. An empty plan clears.
  virtual void install(const fault::FaultPlan& plan) = 0;

  /// Removes the installed plan (subsequent probes run fault-free).
  virtual void clear() = 0;

  /// Evaluates one probe under the installed plan.
  virtual ProbeResult evaluate(std::span<const double> x) = 0;

  /// Fault-free reference output for `x` — the matrix forward pass every
  /// path is pinned against (the simulator's clean evaluation is
  /// bit-identical to it; see tests/test_dist.cpp).
  double nominal(std::span<const double> x) const {
    return network().evaluate(x);
  }

  /// Damaged outputs of every probe under `plan` into `outputs` (same
  /// size): installs the plan, evaluates the probes in order, and clears —
  /// the scoring primitive the exhaustive adversary search calls once per
  /// candidate subset. The base drives install/evaluate; the Injector and
  /// simulator override it with across-probe blocks that return the same
  /// bits.
  virtual void damaged_outputs(const fault::FaultPlan& plan,
                               std::span<const std::vector<double>> probes,
                               std::span<double> outputs);

  /// max over `probes` of |nominal[i] - damaged_i| for `plan`, against
  /// fault-free outputs computed once by the caller (nominal_outputs).
  double worst_output_error(const fault::FaultPlan& plan,
                            std::span<const std::vector<double>> probes,
                            std::span<const double> nominal);

  /// errors[k] = worst_output_error(base + a crash of neuron candidates[k]
  /// of `layer`, appended last) — the greedy adversary's scoring primitive,
  /// called once per search step. No candidate may already be faulted in
  /// `base`. The base implementation is that loop; the Injector overrides
  /// it by running layers 1..layer under `base` once per probe block and
  /// resuming each candidate from that prefix, with the same bits.
  virtual void crash_errors(const fault::FaultPlan& base, std::size_t layer,
                            std::span<const std::size_t> candidates,
                            std::span<const std::vector<double>> probes,
                            std::span<const double> nominal,
                            std::span<double> errors);

  /// Runs every trial: installs its plan, evaluates its probes, and scores
  /// them against the trial's `nominal` (finish_trial). The base
  /// implementation drives install/evaluate sequentially; overrides
  /// parallelize, and must be deterministic in trial order whatever the
  /// worker count or scheduling. Overrides may organize their latency
  /// randomness differently from the serial evaluate path (e.g. per-trial
  /// child streams instead of a per-probe split stream), so the two paths
  /// are only guaranteed to coincide where results are latency-independent
  /// — no straggler cut, or outputs compared only.
  virtual std::vector<TrialResult> run_trials(std::span<const Trial> trials);
};

/// Fault-free outputs of `probes` into `outputs` (same size) in
/// across-probe blocks; each equals net.evaluate(probes[i]) bit for bit.
void nominal_outputs(const nn::FeedForwardNetwork& net,
                     std::span<const std::vector<double>> probes,
                     std::span<double> outputs);

/// A trial of `plan` over `probes`, with `nominal` filled (nominal_outputs).
Trial make_trial(const nn::FeedForwardNetwork& net, fault::FaultPlan plan,
                 std::vector<std::vector<double>> probes);

/// make_trial on the caller's `injector` (bound to the trial's network), so
/// a worker filling many trials builds one Injector, not one per trial.
Trial make_trial(fault::Injector& injector, fault::FaultPlan plan,
                 std::vector<std::vector<double>> probes);

/// Shared summarisation: fills `result.worst_error` from `result.probes`
/// against `trial.nominal`, which must hold one output per probe.
void finish_trial(const Trial& trial, TrialResult& result);

}  // namespace wnf::exec
