// wnfbench: the repository benchmark. One run = one workload, one seed,
// one time budget; the last line of standard output is the JSON result.
//
//   wnfbench --workload campaign|serve_pool|serve_fleet --seed N
//            --seconds S --trace 0|1 [--spans FILE]
//   wnfbench --selftest
//   wnfbench --setup-only --workload W --seed N --seconds S
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// workload with spans around every call into a layer and reports the
// per-layer metrics instead. A failed output check prints the result with
// "correct": false and exits 1. --setup-only does one set-up of the
// workload and prints only its time in s; an untraced run starts itself
// this way several times to measure cold set-ups (setup_s).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Declared once; every workload reports every metric of its kind. A
// per-layer metric a workload does not exercise reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_per_op", "ref_matvec"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"cpu_us_per_op", "us"},
    {"goodput_rps", "1/s"},
    {"fault.make_trials_s", "s"},
    {"exec.injector.probes_per_s", "1/s"},
    {"exec.simulator.probes_per_s", "1/s"},
    {"core.bound_s", "s"},
    {"core.tightness.random_crash", "ratio"},
    {"core.tightness.greedy_crash", "ratio"},
    {"core.tightness.random_byzantine", "ratio"},
    {"core.tightness.synapse_byzantine", "ratio"},
    {"ladder.gemv_ns", "ns"},
    {"ladder.forward_ns", "ns"},
    {"ladder.injector_ns", "ns"},
    {"ladder.sim_ns", "ns"},
    {"ladder.sim_latency_ns", "ns"},
    {"ladder.pool_ns", "ns"},
    {"ladder.fleet_ns", "ns"},
    {"ladder.replay_ns", "ns"},
    {"sojourn_us.p50", "us"},
    {"sojourn_us.p99", "us"},
    {"load.lateness_us.p50", "us"},
    {"load.lateness_us.p99", "us"},
    {"serve.submit_ns", "ns"},
    {"serve.poll_ns", "ns"},
    {"transport.submit_ns", "ns"},
    {"transport.poll_ns", "ns"},
    {"serve.residence_us.p50", "us"},
    {"serve.residence_us.p99", "us"},
    {"serve.outstanding.p99", "count"},
    {"serve.overload_shed_frac", "ratio"},
    {"dist.completion_p99", "sim_time"},
    {"transport.slots_per_request", "ratio"},
    {"transport.doorbells_per_request", "ratio"},
    {"transport.spin_wakeups_per_request", "ratio"},
    {"transport.sleep_wakeups_per_request", "ratio"},
    {"transport.worker_restarts", "count"},
    {"transport.resubmitted", "count"},
    {"transport.stalled_runs", "count"},
    {"trace_overhead_frac", "ratio"},
    {"host.ref_matvec_ns", "ns"},
};

int usage() {
  std::fprintf(stderr,
               "usage: wnfbench --workload campaign|serve_pool|serve_fleet "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n"
               "       wnfbench --selftest\n"
               "       wnfbench --setup-only --workload W --seed N "
               "--seconds S\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wnfbench;
  RunOptions options;
  std::string workload;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (key == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();

  if (setup_only) {
    Outcome out;
    double seconds = 0.0;
    if (workload == "campaign") {
      seconds = campaign_setup_s(options, out);
    } else if (workload == "serve_pool" || workload == "serve_fleet") {
      seconds = serve_setup_s(options, workload == "serve_fleet", out);
    } else {
      return usage();
    }
    for (const auto& why : out.failures) std::printf("%s\n", why.c_str());
    if (!out.correct) return 1;
    std::printf("%.17g\n", seconds);
    return 0;
  }

  std::printf("%s\n", host_shape().c_str());
  const double ref_start_ns = host_reference_ns();
  Outcome out;
  if (workload == "campaign") {
    out = run_campaign(options);
  } else if (workload == "serve_pool") {
    out = run_serve(options, false);
  } else if (workload == "serve_fleet") {
    out = run_serve(options, true);
  } else {
    return usage();
  }
  if (!options.trace) out.metrics["peak_rss_mb"] = peak_rss_mb();
  const double ref_end_ns = host_reference_ns();
  std::printf("host speed: reference 128x128 matvec %.1f ns at the start, "
              "%.1f ns at the end\n",
              ref_start_ns, ref_end_ns);
  if (options.trace) {
    out.metrics["host.ref_matvec_ns"] = 0.5 * (ref_start_ns + ref_end_ns);
  }

  const auto* specs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = options.trace ? std::size(kPerLayer)
                                          : std::size(kEndToEnd);
  for (const auto& [name, value] : out.metrics) {
    bool known = false;
    for (std::size_t i = 0; i < count; ++i) known |= name == specs[i].name;
    if (!known) out.fail("undeclared metric " + name);
  }
  std::string metrics;
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = out.metrics.find(specs[i].name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!options.trace && it == out.metrics.end()) {
      out.fail(std::string("missing end-to-end metric ") + specs[i].name);
    }
    if (!std::isfinite(value)) {
      out.fail(std::string("non-finite metric ") + specs[i].name);
      value = 0.0;
    }
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    metrics += row;
    std::printf("  %-38s %.6g %s\n", specs[i].name, value, specs[i].unit);
  }
  const double fail_frac =
      out.attempted == 0 ? 0.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::printf("  %-38s %.6g ratio (%llu of %llu)\n", "fail_frac", fail_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& why : out.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  out.attempted, 1)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
