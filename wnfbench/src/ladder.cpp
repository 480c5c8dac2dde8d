// The layer ladder: one workload's own inputs, run single-threaded up the
// serving stack one layer at a time. Each rung's marginal cost over the
// rung it builds on is that layer's price per probe.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "dist/boosting.hpp"
#include "dist/sim.hpp"
#include "fault/injector.hpp"
#include "serve/pool.hpp"
#include "tensor/ops.hpp"
#include "transport/host.hpp"
#include "transport/worker.hpp"

namespace wnfbench {
namespace {

using namespace wnf;

constexpr int kReps = 5;
constexpr double kRungDeadlineSeconds = 2.0;

struct Rung {
  const char* name;
  const char* below;  ///< the rung this one adds a layer to (null: none)
  double ns = 0.0;    ///< per probe; 0 when the rung could not complete
};

/// Median over kReps passes of the mean ns per probe of `one(i)`; 0 when
/// `one` reports failure (a missed deadline).
double time_rung(SpanLog* log, const char* span_name, std::size_t n,
                 const std::function<bool(std::size_t)>& one) {
  ScopedSpan span(log, span_name);
  std::vector<double> per_probe;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (!one(i)) return 0.0;
    }
    per_probe.push_back(static_cast<double>(now_ns() - start) /
                        static_cast<double>(n));
  }
  return median(per_probe);
}

Clock::time_point deadline_from_now() {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(kRungDeadlineSeconds));
}

/// Submits one request and spins on poll until it is delivered, keeping
/// the result's digest; false if the deadline passes first.
template <typename Deployment>
bool round_trip(Deployment& deploy, const std::vector<double>& x,
                Clock::time_point deadline,
                std::vector<std::uint64_t>& digests) {
  if (!deploy.submit(x)) return false;
  serve::RequestResult result;
  while (!deploy.poll(result)) {
    if (Clock::now() > deadline) return false;
  }
  digests.push_back(result_digest(result));
  return true;
}

}  // namespace

std::size_t run_ladder(const LadderSpec& spec, SpanLog* log, Outcome& out,
                       RingCounts& rings) {
  const nn::FeedForwardNetwork& net = *spec.net;
  const auto& probes = spec.probes;
  const std::size_t n = probes.size();
  std::size_t stalled = 0;
  volatile double sink = 0.0;  // keeps every rung's result live
  ScopedSpan ladder(log, "ladder");
  std::vector<Rung> rungs;
  const auto add = [&](const char* name, const char* below,
                       const std::function<bool(std::size_t)>& one) {
    const std::string span_name = std::string("ladder.") + name;
    rungs.push_back({name, below, time_rung(log, span_name.c_str(), n, one)});
    return rungs.back().ns;
  };

  // gemv: tensor::gemv over the net's matrices, activation left out.
  std::vector<double> a, b;
  add("gemv", nullptr, [&](std::size_t i) {
    a.assign(probes[i].begin(), probes[i].end());
    for (std::size_t l = 1; l <= net.layer_count(); ++l) {
      b.resize(net.layer_width(l));
      gemv(net.layer(l).weights(), a, b);
      std::swap(a, b);
    }
    sink = sink + dot(net.output_weights(), a);
    return true;
  });
  nn::Workspace ws;
  add("forward", "gemv", [&](std::size_t i) {
    sink = sink + net.evaluate(probes[i], ws);
    return true;
  });
  fault::Injector injector(net);
  add("injector", "forward", [&](std::size_t i) {
    sink = sink + injector.damaged(spec.plan, probes[i]);
    return true;
  });
  dist::NetworkSimulator sim(net, dist::SimConfig{});
  sim.apply_faults(spec.plan);
  add("sim", "injector", [&](std::size_t i) {
    sink = sink + sim.evaluate(probes[i]).output;
    return true;
  });
  const auto waits = dist::wait_counts_from_cut(net, spec.cut);
  Rng stream(spec.seed);
  const double sim_latency_ns = add("sim_latency", "sim", [&](std::size_t i) {
    sim.sample_latencies(spec.latency, stream);
    sink = sink + sim.evaluate_boosted(probes[i], waits).output;
    return true;
  });

  // Pool and fleet are sibling deployments over the simulator, one
  // request in flight; replay drives the top one open-loop.
  serve::FaultTimeline timeline;
  timeline.add(0, serve::FaultTimeline::kForever, spec.plan);
  serve::ServeConfig pool_config;
  pool_config.replicas = 1;
  pool_config.latency = spec.latency;
  pool_config.straggler_cut = spec.cut;
  pool_config.seed = spec.seed;
  transport::TransportConfig fleet_config;
  fleet_config.workers = 1;
  fleet_config.latency = spec.latency;
  fleet_config.straggler_cut = spec.cut;
  fleet_config.seed = spec.seed;
  const bool fleet = transport::transport_available();
  // Both rungs submit the same inputs under the same seed and timeline, so
  // the fleet must deliver what the pool did, id for id.
  std::vector<std::uint64_t> pool_digests, fleet_digests;
  pool_digests.reserve(kReps * n);
  fleet_digests.reserve(kReps * n);
  {
    serve::ReplicaPool pool(net, pool_config);
    pool.set_timeline(timeline);
    const auto deadline = deadline_from_now();
    add("pool", "sim_latency", [&](std::size_t i) {
      return round_trip(pool, probes[i], deadline, pool_digests);
    });
  }
  if (fleet) {
    transport::WorkerHost host(net, fleet_config);
    host.set_timeline(timeline);
    const auto deadline = deadline_from_now();
    stalled += add("fleet", "sim_latency", [&](std::size_t i) {
                 return round_trip(host, probes[i], deadline, fleet_digests);
               }) == 0.0;
    const std::size_t both =
        std::min(pool_digests.size(), fleet_digests.size());
    if (!std::equal(fleet_digests.begin(), fleet_digests.begin() + both,
                    pool_digests.begin())) {
      out.fail("ladder: fleet results differ from the pool's, id for id");
    }
  } else {
    rungs.push_back({"fleet", "sim_latency", 0.0});
  }

  // replay: at 50k req/s, or 30% of one simulator's capacity on wide nets;
  // the rung is the median sojourn.
  {
    const double rate = std::min(50e3, 0.3e9 / std::max(sim_latency_ns, 1.0));
    Rng rng(spec.seed + 3);
    const load::ArrivalTrace trace =
        load::poisson_trace(rate, static_cast<double>(n) / rate, rng);
    std::unique_ptr<transport::WorkerHost> host;
    std::unique_ptr<serve::ReplicaPool> pool;
    std::unique_ptr<load::Pipeline> inner;
    std::size_t host_delivered = 0;
    // Every pass gets a fresh logical deployment, so its ids restart at 0
    // and it can be checked against a synchronous drain: the fleet is
    // rebound, or forked afresh after a stall; the pool is rebuilt.
    const auto next = [&](bool after_stall) {
      inner.reset();
      if (host) rings.add(*host, host_delivered);  // rebind resets them
      host_delivered = 0;
      if (fleet) {
        if (host && !after_stall) {
          host->rebind(net);
        } else {
          host.reset();
          host = std::make_unique<transport::WorkerHost>(net, fleet_config);
        }
        host->set_timeline(timeline);
        inner = std::make_unique<load::HostPipeline>(*host);
      } else {
        pool.reset();
        pool = std::make_unique<serve::ReplicaPool>(net, pool_config);
        pool->set_timeline(timeline);
        inner = std::make_unique<load::PoolPipeline>(*pool);
      }
    };
    ScopedSpan span(log, "ladder.replay");
    std::vector<double> p50_ns;
    bool after_stall = false;
    for (int rep = 0; rep < kReps; ++rep) {
      next(after_stall);
      TimedPipelineOptions knobs;
      knobs.deadline = deadline_from_now();
      TimedPipeline timed(*inner, trace, knobs);
      std::vector<load::Pipeline*> pipes{&timed};
      try {
        p50_ns.push_back(load::replay(trace, probes, pipes).p50 * 1e9);
        after_stall = false;
      } catch (const DeadlineExceeded&) {
        ++stalled;
        after_stall = true;
      }
      host_delivered += timed.delivered();
      // Output check, whether or not the pass completed.
      if (!timed.ids_in_order()) out.fail("ladder.replay: ids out of order");
      const std::size_t mismatched =
          count_mismatches(net, pool_config, timeline, probes, timed);
      if (mismatched > 0) {
        out.fail("ladder.replay: " + std::to_string(mismatched) +
                 " results differ from the synchronous drain");
      }
    }
    rungs.push_back({"replay", fleet ? "fleet" : "pool",
                     p50_ns.empty() ? 0.0 : median(p50_ns)});
    if (host) rings.add(*host, host_delivered);
  }

  const double top = rungs.back().ns;
  std::printf("ladder (%zu probes, single-threaded, median of %d passes):\n"
              "  %-12s %12s %12s %-12s %8s\n",
              n, kReps, "rung", "ns/probe", "marginal", "over", "share");
  for (const Rung& rung : rungs) {
    double base = 0.0;
    for (const Rung& other : rungs) {
      if (rung.below && std::string(rung.below) == other.name) base = other.ns;
    }
    std::printf("  %-12s %12.1f %12.1f %-12s %7.1f%%%s\n", rung.name, rung.ns,
                rung.ns - base, rung.below ? rung.below : "-",
                top > 0.0 ? 100.0 * rung.ns / top : 0.0,
                rung.ns == 0.0 ? "  (did not complete)" : "");
    out.metrics[std::string("ladder.") + rung.name + "_ns"] = rung.ns;
  }
  return stalled;
}

}  // namespace wnfbench
