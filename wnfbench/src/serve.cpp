// serve_pool / serve_fleet: an open-loop Poisson trace replayed through
// load::replay into a 2-replica ReplicaPool or a 2-worker WorkerHost with
// rings. Two fixed phases: a light phase at 50k req/s (sojourn p50/p99)
// and an overload phase offering 500k req/s against the default 4096-deep
// queue (goodput and CPU time per request). A crash window and a Byzantine
// window cover about a third of the request ids of every phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "nn/builder.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"

namespace wnfbench {
namespace {

using namespace wnf;

constexpr double kLightRate = 50e3;
constexpr double kOverloadRate = 500e3;
/// Phase lengths are fixed; a longer run repeats them more often, so the
/// memory a run takes does not grow with --seconds.
constexpr double kLightSeconds = 0.6;
constexpr double kOverloadSeconds = 0.4;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kDistinctInputs = 4096;
constexpr std::size_t kWarmupRequests = 4096;  ///< one full queue
constexpr int kSetups = 7;
/// A phase that has not delivered everything this long after its last
/// scheduled arrival is declared stalled.
constexpr double kDeadlineGraceSeconds = 2.0;

/// The deployment shape shared by every phase, the reference drain and
/// the ladder.
struct Shape {
  dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0, 0.2};
  std::vector<std::size_t> cut{2, 2};
  std::uint64_t serve_seed = 0;
};

/// One phase's fixed inputs: the trace, its distinct inputs, and the
/// timeline whose windows cover about a third of the phase's ids.
struct PhaseInput {
  load::ArrivalTrace trace;
  serve::FaultTimeline timeline;
  bool light = false;  ///< light phases also measure sojourn and dist
};

struct Setup {
  nn::FeedForwardNetwork net;
  std::vector<std::vector<double>> inputs;
  fault::FaultPlan crash;
  fault::FaultPlan byzantine;
  PhaseInput light;
  PhaseInput overload;
  Shape shape;
};

serve::FaultTimeline timeline_for(const Setup& setup, std::size_t ids) {
  const auto at = [ids](double frac) {
    return static_cast<std::uint64_t>(frac * static_cast<double>(ids));
  };
  serve::FaultTimeline timeline;
  timeline.add(at(0.20), at(0.37), setup.crash);
  timeline.add(at(0.55), at(0.72), setup.byzantine);
  return timeline;
}

void build_inputs(Setup& setup, std::uint64_t seed) {
  Rng rng(seed);
  setup.net = nn::NetworkBuilder(8)
                  .activation(nn::ActivationKind::kSigmoid, 1.0)
                  .hidden(16)
                  .hidden(16)
                  .init(nn::InitKind::kScaledUniform, 0.8)
                  .build(rng);
  setup.inputs.assign(kDistinctInputs, std::vector<double>(8));
  for (auto& x : setup.inputs) {
    for (double& v : x) v = rng.uniform();
  }
  const auto two = [&rng](std::size_t width) {
    return rng.sample_indices(width, 2);
  };
  const auto crashed = two(16);
  setup.crash.neurons = {{1, crashed[0], fault::NeuronFaultKind::kCrash, 0.0},
                         {1, crashed[1], fault::NeuronFaultKind::kCrash, 0.0}};
  const auto byz = two(16);
  setup.byzantine.neurons = {
      {2, byz[0], fault::NeuronFaultKind::kByzantine, 1.0},
      {2, byz[1], fault::NeuronFaultKind::kByzantine, -1.0}};
  setup.crash.convention = theory::CapacityConvention::kTransmittedValueBound;
  setup.byzantine.convention = setup.crash.convention;
  setup.light.trace = load::poisson_trace(kLightRate, kLightSeconds, rng);
  setup.light.light = true;
  setup.overload.trace =
      load::poisson_trace(kOverloadRate, kOverloadSeconds, rng);
  setup.light.timeline = timeline_for(setup, setup.light.trace.size());
  setup.overload.timeline = timeline_for(setup, setup.overload.trace.size());
  setup.shape.serve_seed = seed ^ 0x5e17e;
}

serve::ServeConfig pool_config(const Shape& shape, std::size_t replicas,
                               std::size_t queue = 4096) {
  serve::ServeConfig config;
  config.replicas = replicas;
  config.queue_capacity = queue;
  config.latency = shape.latency;
  config.straggler_cut = shape.cut;
  config.seed = shape.serve_seed;
  return config;
}

transport::TransportConfig fleet_config(const Shape& shape,
                                        std::size_t workers) {
  transport::TransportConfig config;
  config.workers = workers;
  config.latency = shape.latency;
  config.straggler_cut = shape.cut;
  config.seed = shape.serve_seed;
  return config;
}

/// The deployment under test. The pool is rebuilt for every phase; the
/// fleet is rebound (ids restart at 0, no new fork) unless the previous
/// phase stalled, in which case it was torn down and is forked afresh.
class Deployment {
 public:
  Deployment(const Setup& setup, bool fleet) : setup_(setup), fleet_(fleet) {}

  load::Pipeline& reset(const serve::FaultTimeline& timeline) {
    if (fleet_) {
      if (host_) {
        host_->rebind(setup_.net);
      } else {
        host_ = std::make_unique<transport::WorkerHost>(
            setup_.net, fleet_config(setup_.shape, kReplicas));
      }
      host_->set_timeline(timeline);
      pipe_ = std::make_unique<load::HostPipeline>(*host_);
    } else {
      pipe_.reset();
      pool_.reset();
      pool_ = std::make_unique<serve::ReplicaPool>(
          setup_.net, pool_config(setup_.shape, kReplicas));
      pool_->set_timeline(timeline);
      pipe_ = std::make_unique<load::PoolPipeline>(*pool_);
    }
    return *pipe_;
  }

  /// Tears the deployment down after a stall (the fleet's workers are
  /// shut down and reaped by the host's destructor).
  void tear_down() {
    pipe_.reset();
    host_.reset();
    pool_.reset();
  }

  transport::WorkerHost* host() { return host_.get(); }
  const char* layer() const { return fleet_ ? "transport" : "serve"; }

 private:
  const Setup& setup_;
  bool fleet_;
  std::unique_ptr<serve::ReplicaPool> pool_;
  std::unique_ptr<transport::WorkerHost> host_;
  std::unique_ptr<load::Pipeline> pipe_;
};

struct PhaseResult {
  bool stalled = false;
  std::size_t offered = 0;
  std::size_t refused = 0;
  std::size_t undelivered = 0;
  std::size_t delivered = 0;
  std::size_t mismatched = 0;  ///< delivered results the check rejected
  double cpu_s = 0.0;    ///< process CPU time over the replay
  double ref_ns = 0.0;   ///< host reference matvec timed after the phase
  std::size_t record_bytes = 0;  ///< the decorator's per-arrival records
  double p50_us = 0.0;
  double p99_us = 0.0;
  double goodput_rps = 0.0;
  double completion_p99 = 0.0;  ///< simulated clock, all delivered only
  // traced only
  std::vector<double> lateness_us, residence_us, depth;
  double submit_ns = 0.0, poll_ns = 0.0;
};

/// Runs one phase through `deploy` with a deadline, checks every delivered
/// output against the synchronous reference, and returns what it saw.
/// `knobs` carries the self-test's injected delays and delivery cap.
PhaseResult run_phase(Deployment& deploy, const Setup& setup,
                      const PhaseInput& phase, SpanLog* log,
                      TimedPipelineOptions knobs, Outcome& out,
                      RingCounts* rings, const char* what) {
  load::Pipeline& inner = deploy.reset(phase.timeline);
  knobs.deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           phase.trace.duration + kDeadlineGraceSeconds));
  TimedPipeline timed(inner, phase.trace, knobs, log, deploy.layer());
  std::vector<load::Pipeline*> pipes{&timed};
  PhaseResult result;
  std::optional<load::LoadReport> report;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  {
    ScopedSpan span(log, what);
    try {
      report = load::replay(phase.trace, setup.inputs, pipes);
    } catch (const DeadlineExceeded&) {
      result.stalled = true;
    }
  }
  const auto end = Clock::now();
  result.cpu_s = process_cpu_s() - cpu_start;
  const double wall_s = std::chrono::duration<double>(end - start).count();
  result.offered = phase.trace.size();
  result.refused = timed.refused();
  result.undelivered =
      timed.undelivered() + (result.offered - timed.submitted());
  result.delivered = timed.delivered();
  if (report) {
    result.p50_us = report->p50 * 1e6;
    result.p99_us = report->p99 * 1e6;
    result.goodput_rps = report->completed_rps;
  } else {
    result.goodput_rps = static_cast<double>(result.delivered) / wall_s;
  }
  if (phase.light && (!report || result.refused > 0)) {
    // Refused and undelivered arrivals count as missing any latency limit:
    // censor them at the instant the phase gave up.
    const auto sojourns = timed.sojourns_us(end);
    result.p50_us = quantile(sojourns, 0.50);
    result.p99_us = quantile(sojourns, 0.99);
  }
  if (log) {
    result.lateness_us = timed.lateness_us();
    result.residence_us = timed.residence_us();
    result.depth = timed.outstanding_samples();
    result.submit_ns = timed.submit_ns_per_call();
    result.poll_ns = timed.poll_ns_per_delivery();
  }
  if (rings && deploy.host()) rings->add(*deploy.host(), result.delivered);
  if (result.stalled) deploy.tear_down();

  result.record_bytes = timed.record_bytes();

  // Output check: every delivered result must equal a synchronous drain of
  // the same admitted ids, bit for bit, in id order.
  if (!timed.ids_in_order()) {
    out.fail(std::string(what) + ": ids out of order");
  }
  std::vector<double> completions;
  result.mismatched =
      count_mismatches(setup.net, pool_config(setup.shape, kReplicas),
                       phase.timeline, setup.inputs, timed,
                       phase.light ? &completions : nullptr);
  if (result.mismatched > 0) {
    out.fail(std::string(what) + ": " + std::to_string(result.mismatched) +
             " results differ from the synchronous drain");
  }
  if (phase.light && result.undelivered == 0) {
    result.completion_p99 = quantile(std::move(completions), 0.99);
  }
  return result;
}

/// Set-up warm-up: kWarmupRequests pushed through the deployment as fast
/// as it takes them (submit until the queue refuses, then poll), so the
/// replicas, the queue and the heap are exercised without waiting on a
/// schedule. False, with the deployment torn down, if they are not all
/// delivered within the deadline grace.
bool warm_up(Deployment& deploy, const Setup& setup) {
  load::Pipeline& pipe = deploy.reset(setup.light.timeline);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDeadlineGraceSeconds));
  std::size_t submitted = 0;
  std::size_t delivered = 0;
  serve::RequestResult result;
  while (delivered < kWarmupRequests) {
    while (submitted < kWarmupRequests &&
           pipe.try_submit(setup.inputs[submitted % setup.inputs.size()])) {
      ++submitted;
    }
    while (pipe.poll(result)) ++delivered;
    if (Clock::now() > deadline) {
      deploy.tear_down();
      return false;
    }
  }
  return true;
}

}  // namespace

double serve_setup_s(const RunOptions& options, bool fleet, Outcome& out) {
  const auto start = Clock::now();
  Setup setup;
  build_inputs(setup, options.seed);
  Deployment deploy(setup, fleet);
  if (!warm_up(deploy, setup)) out.fail("set-up warm-up missed its deadline");
  return seconds_since(start);
}

Outcome run_serve(const RunOptions& options, bool fleet) {
  Outcome out;
  if (fleet && !transport::transport_available()) {
    out.fail("serve_fleet needs POSIX fork/socketpair (transport unavailable)");
    return out;
  }
  // Light repeats take 30% of the run budget, overload repeats 20%. A
  // traced run halves both and spends the rest on the traced copy and the
  // ladder.
  const double budget = options.seconds * (options.trace ? 0.5 : 1.0);
  const int light_repeats =
      std::max(3, static_cast<int>(std::lround(0.3 * budget / kLightSeconds)));
  const int overload_repeats = std::max(
      3, static_cast<int>(std::lround(0.2 * budget / kOverloadSeconds)));
  if (!options.trace) {
    out.metrics["setup_s"] = cold_setup_s(
        options, fleet ? "serve_fleet" : "serve_pool", kSetups, out);
  }

  // The run's own set-up, the same as each cold one above.
  auto setup = std::make_unique<Setup>();
  build_inputs(*setup, options.seed);
  auto deploy = std::make_unique<Deployment>(*setup, fleet);
  std::size_t stalled = !warm_up(*deploy, *setup);

  RingCounts rings;
  std::size_t record_bytes = 0;
  // The first phase after a change of load level runs slower than the
  // rest (light p50 about +35%, overload goodput about -25% on the 4-core
  // reference VM), so each kind of phase starts with one unmeasured run.
  const auto run_phases = [&](SpanLog* log, int light_n, int overload_n,
                              std::vector<PhaseResult>& light,
                              std::vector<PhaseResult>& overload) {
    run_phase(*deploy, *setup, setup->light, nullptr, {}, out, nullptr,
              "lead_in.light");
    for (int r = 0; r < light_n; ++r) {
      light.push_back(run_phase(*deploy, *setup, setup->light, log, {}, out,
                                &rings, "phase.light"));
      const auto& p = light.back();
      out.attempted += p.offered;
      out.failed += p.refused + p.undelivered + p.mismatched;
      stalled += p.stalled;
    }
    run_phase(*deploy, *setup, setup->overload, nullptr, {}, out, nullptr,
              "lead_in.overload");
    for (int r = 0; r < overload_n; ++r) {
      overload.push_back(run_phase(*deploy, *setup, setup->overload, log, {},
                                   out, &rings, "phase.overload"));
      overload.back().ref_ns = host_reference_ns();
      const auto& p = overload.back();
      // Queue refusals are the overload phase's point, not failures.
      out.attempted += p.offered;
      out.failed += p.undelivered + p.mismatched;
      stalled += p.stalled;
      record_bytes = std::max(record_bytes, p.record_bytes);
    }
  };
  const auto medians = [](const std::vector<PhaseResult>& phases,
                          double PhaseResult::*field) {
    std::vector<double> v;
    for (const auto& p : phases) v.push_back(p.*field);
    return median(v);
  };
  const auto check_exact_repeats = [&out](const std::vector<PhaseResult>& l) {
    for (const auto& p : l) {
      if (p.undelivered == 0 && l.front().undelivered == 0 &&
          p.completion_p99 != l.front().completion_p99) {
        out.fail("dist.completion_p99 differs between repeats of one trace");
      }
    }
  };

  std::vector<PhaseResult> light, overload;
  run_phases(nullptr, light_repeats, overload_repeats, light, overload);
  check_exact_repeats(light);
  const double goodput = medians(overload, &PhaseResult::goodput_rps);
  std::printf("%s: light %.0f req/s x %.2f s x %d, overload %.0f req/s x "
              "%.2f s x %d, %zu stalled phase(s)\n",
              fleet ? "serve_fleet" : "serve_pool", kLightRate,
              kLightSeconds, light_repeats, kOverloadRate, kOverloadSeconds,
              overload_repeats, stalled);
  std::printf("  the benchmark's own per-arrival records: %.2f MB at most "
              "(part of peak_rss_mb)\n",
              static_cast<double>(record_bytes) / (1024.0 * 1024.0));
  for (std::size_t i = 0; i < light.size(); ++i) {
    std::printf("  light[%zu]    p50 %9.1f us  p99 %9.1f us  refused %zu  "
                "undelivered %zu%s\n",
                i, light[i].p50_us, light[i].p99_us, light[i].refused,
                light[i].undelivered, light[i].stalled ? "  STALLED" : "");
  }
  for (std::size_t i = 0; i < overload.size(); ++i) {
    std::printf("  overload[%zu] goodput %9.0f req/s  shed %.3f  "
                "undelivered %zu  cpu %.3f us/req  ref %.0f ns%s\n",
                i, overload[i].goodput_rps,
                static_cast<double>(overload[i].refused) /
                    static_cast<double>(overload[i].offered),
                overload[i].undelivered,
                overload[i].cpu_s * 1e6 /
                    static_cast<double>(overload[i].delivered),
                overload[i].ref_ns, overload[i].stalled ? "  STALLED" : "");
  }

  // CPU time per delivered overload request.
  const auto cpu_cost = [](const std::vector<PhaseResult>& phases) {
    CpuCost cost;
    for (const auto& p : phases) {
      cost.per_op_ns.push_back(p.cpu_s * 1e9 /
                               static_cast<double>(p.delivered));
      cost.ref_ns.push_back(p.ref_ns);
    }
    return cost;
  };
  const CpuCost cost = cpu_cost(overload);
  cost.print();
  if (!options.trace) {
    out.metrics["cpu_per_op"] = cost.in_ref();
    return out;
  }

  // --- traced run: the same phases with every call timed ---
  SpanLog log;
  std::vector<PhaseResult> tlight, toverload;
  run_phases(&log, light_repeats, overload_repeats, tlight, toverload);
  check_exact_repeats(tlight);
  if (!tlight.empty() && !light.empty() && tlight.front().undelivered == 0 &&
      light.front().undelivered == 0 &&
      tlight.front().completion_p99 != light.front().completion_p99) {
    out.fail("dist.completion_p99 differs between the plain and traced run");
  }
  out.metrics["trace_overhead_frac"] =
      cpu_cost(toverload).in_ref() / cost.in_ref() - 1.0;
  out.metrics["cpu_us_per_op"] = cost.us();

  std::vector<double> lateness, residence, depth, submit_ns, poll_ns;
  for (const auto& p : tlight) {
    lateness.insert(lateness.end(), p.lateness_us.begin(), p.lateness_us.end());
    residence.insert(residence.end(), p.residence_us.begin(),
                     p.residence_us.end());
    depth.insert(depth.end(), p.depth.begin(), p.depth.end());
  }
  for (const auto& p : toverload) {
    submit_ns.push_back(p.submit_ns);
    poll_ns.push_back(p.poll_ns);
  }
  const std::string layer = fleet ? "transport" : "serve";
  // Goodput and light-phase sojourn, measured untraced. On a shared VM they
  // track the host: thread wake-up latency and multi-millisecond vCPU
  // preemptions move them by 2x from one run to the next (see README.md),
  // so they are reported here rather than among the bounded metrics.
  out.metrics["goodput_rps"] = goodput;
  out.metrics["sojourn_us.p50"] = medians(light, &PhaseResult::p50_us);
  out.metrics["sojourn_us.p99"] = medians(light, &PhaseResult::p99_us);
  out.metrics["load.lateness_us.p50"] = quantile(lateness, 0.50);
  out.metrics["load.lateness_us.p99"] = quantile(lateness, 0.99);
  out.metrics[layer + ".submit_ns"] = median(submit_ns);
  out.metrics[layer + ".poll_ns"] = median(poll_ns);
  out.metrics["serve.residence_us.p50"] = quantile(residence, 0.50);
  out.metrics["serve.residence_us.p99"] = quantile(residence, 0.99);
  out.metrics["serve.outstanding.p99"] = quantile(depth, 0.99);
  std::vector<double> shed;
  for (const auto& p : toverload) {
    shed.push_back(static_cast<double>(p.refused) /
                   static_cast<double>(p.offered));
  }
  out.metrics["serve.overload_shed_frac"] = median(shed);
  out.metrics["dist.completion_p99"] = tlight.front().completion_p99;
  // --- the ladder over this workload's net, inputs and crash plan ---
  LadderSpec spec;
  spec.net = &setup->net;
  spec.probes.assign(setup->inputs.begin(), setup->inputs.begin() + 512);
  spec.plan = setup->crash;
  spec.latency = setup->shape.latency;
  spec.cut = setup->shape.cut;
  spec.seed = options.seed;
  deploy.reset();  // the ladder forks its own single-worker fleet
  stalled += run_ladder(spec, &log, out, rings);
  rings.report(out);
  out.metrics["transport.stalled_runs"] = static_cast<double>(stalled);

  log.print_self_times("spans (traced run):");
  if (!options.spans_path.empty() && !log.write_csv(options.spans_path)) {
    out.fail("cannot write spans to " + options.spans_path);
  }
  return out;
}

int run_selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("  %s  %s\n", ok ? "pass" : "FAIL", what.c_str());
    failures += !ok;
  };
  Setup setup;
  build_inputs(setup, 7);
  Deployment deploy(setup, false);
  Outcome scratch;

  // 1. A fixed delay injected into one layer's calls is attributed to that
  //    layer, and goodput drops.
  constexpr std::int64_t kDelayNs = 10000;
  std::printf("self-test: %lld ns injected into one layer's calls\n",
              static_cast<long long>(kDelayNs));
  const auto traced_overload = [&](TimedPipelineOptions knobs) {
    SpanLog log;
    return run_phase(deploy, setup, setup.overload, &log, knobs, scratch,
                     nullptr, "selftest.overload");
  };
  const PhaseResult plain = traced_overload({});
  TimedPipelineOptions slow_submit;
  slow_submit.submit_delay_ns = kDelayNs;
  const PhaseResult submit = traced_overload(slow_submit);
  TimedPipelineOptions slow_poll;
  slow_poll.poll_delay_ns = kDelayNs;
  const PhaseResult poll = traced_overload(slow_poll);
  std::printf("    plain:  submit %.0f ns  poll %.0f ns  goodput %.0f/s\n"
              "    +submit: submit %.0f ns  poll %.0f ns  goodput %.0f/s\n"
              "    +poll:  submit %.0f ns  poll %.0f ns  goodput %.0f/s\n",
              plain.submit_ns, plain.poll_ns, plain.goodput_rps,
              submit.submit_ns, submit.poll_ns, submit.goodput_rps,
              poll.submit_ns, poll.poll_ns, poll.goodput_rps);
  expect(submit.submit_ns - plain.submit_ns >= 0.9 * kDelayNs,
         "submit delay shows in serve.submit_ns");
  expect(submit.poll_ns - plain.poll_ns < 0.5 * kDelayNs,
         "submit delay does not show in serve.poll_ns");
  expect(submit.goodput_rps < 0.8 * plain.goodput_rps,
         "submit delay lowers goodput_rps");
  expect(poll.poll_ns - plain.poll_ns >= 0.9 * kDelayNs,
         "poll delay shows in serve.poll_ns");
  expect(poll.submit_ns - plain.submit_ns < 0.5 * kDelayNs,
         "poll delay does not show in serve.submit_ns");
  expect(poll.goodput_rps < 0.8 * plain.goodput_rps,
         "poll delay lowers goodput_rps");

  // 2. A poll that stops delivering ends at the deadline, and every
  //    undelivered request counts in fail_frac.
  PhaseInput small;
  small.trace.arrivals.assign(setup.light.trace.arrivals.begin(),
                              setup.light.trace.arrivals.begin() + 2000);
  small.trace.duration = small.trace.arrivals.back().time;
  small.timeline = timeline_for(setup, small.trace.size());
  for (const std::size_t limit : {std::size_t{0}, std::size_t{1000}}) {
    TimedPipelineOptions knobs;
    knobs.deliver_limit = limit;
    const auto start = Clock::now();
    Outcome checked;
    const PhaseResult r = run_phase(deploy, setup, small, nullptr, knobs,
                                    checked, nullptr, "selftest.stuck");
    const double elapsed = seconds_since(start);
    const double fail_frac =
        static_cast<double>(r.refused + r.undelivered) /
        static_cast<double>(r.offered);
    std::printf("self-test: poll delivers at most %zu of %zu: stalled=%d, "
                "undelivered %zu, fail_frac %.4f, %.2f s\n",
                limit, r.offered, r.stalled ? 1 : 0, r.undelivered, fail_frac,
                elapsed);
    expect(r.stalled, "the phase ends at its deadline");
    expect(elapsed < small.trace.duration + kDeadlineGraceSeconds + 1.0,
           "and does not hang past it");
    expect(r.undelivered == r.offered - limit &&
               fail_frac == static_cast<double>(r.offered - limit) /
                                static_cast<double>(r.offered),
           "fail_frac = undelivered / offered");
    expect(checked.correct, "delivered results still pass the output check");
  }
  expect(scratch.correct, "self-test phases pass their output checks");
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures;
}

}  // namespace wnfbench
