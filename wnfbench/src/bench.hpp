// Shared machinery of the repository benchmark: run options, the result a
// workload hands back, order statistics, the in-memory span log, and the
// timing decorator over load::Pipeline that every serving phase drives.
//
// Everything here measures the library from outside: it only calls public
// functions and reads public metrics, so the benchmark times the code that
// users run, not an instrumented copy of it.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/latency.hpp"
#include "fault/plan.hpp"
#include "load/replay.hpp"
#include "load/trace.hpp"
#include "nn/network.hpp"
#include "serve/pool.hpp"
#include "transport/host.hpp"

namespace wnfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spins for `ns` nanoseconds (the self-test's injected layer delay).
void busy_wait_ns(std::int64_t ns);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 30.0;   ///< measurement budget of one run
  bool trace = false;      ///< traced run: per-layer metrics instead
  std::string spans_path;  ///< where a traced run writes its spans
};

/// What one workload run reports. A failed output check clears `correct`
/// and adds a line to `failures`; it is never folded into a metric.
/// Metric names and units are declared once, in main.cpp.
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile of `values` (p in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ------------------------------------------------------------- span log

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// log (-1 at the root); `id` is the request id for per-request spans.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log: spans are appended as calls finish and written out
/// once, when the run ends. Not thread-safe — only the driver thread
/// records.
class SpanLog {
 public:
  /// Interns `name` and returns its index.
  std::uint32_t intern(const std::string& name);

  /// Opens a span under the currently open one; close it with end().
  std::int32_t begin(std::uint32_t name, std::uint64_t id = 0);
  void end(std::int32_t span);

  /// Records a finished leaf span under the currently open one.
  void leaf(std::uint32_t name, std::uint64_t id, std::int64_t start_ns,
            std::int64_t end_ns);

  /// Per-name count, total and self time (duration minus the time its
  /// child spans cover), printed as a table.
  void print_self_times(const char* title) const;

  /// Writes every span as CSV (name,id,parent,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span over one call; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t id = 0)
      : log_(log), span_(log ? log->begin(log->intern(name), id) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t span_;
};

// ------------------------------------------------------ timing decorator

/// Thrown out of load::replay by a TimedPipeline whose deadline passed
/// with requests still undelivered (replay itself waits forever).
struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded() : std::runtime_error("replay deadline exceeded") {}
};

struct TimedPipelineOptions {
  /// Absolute steady-clock deadline; a poll that finds nothing after it
  /// throws DeadlineExceeded.
  Clock::time_point deadline = Clock::time_point::max();
  /// Self-test knobs: a fixed delay injected into every try_submit or
  /// poll call, and a cap on how many results poll ever delivers.
  std::int64_t submit_delay_ns = 0;
  std::int64_t poll_delay_ns = 0;
  std::size_t deliver_limit = ~std::size_t{0};
};

/// 64-bit digest of everything a delivered result carries but its id. The
/// output check compares digests, so a phase keeps 8 bytes per request
/// instead of the result itself.
std::uint64_t result_digest(const wnf::serve::RequestResult& result);

/// Decorator over one load::Pipeline driven by load::replay from a single
/// thread. It enforces the run deadline and records which arrivals the
/// deployment admitted and a digest of each delivered result, so the
/// output check can replay exactly the admitted ids. When given a span log
/// it also times every call: try_submit and delivering polls become spans
/// tagged with the request id, and empty polls are summed.
///
/// The k-th try_submit call is arrival k of `schedule`: the benchmark
/// replays with neither an admission limit nor SLO shedding, so replay
/// submits every arrival in trace order. Its clock origin is the first
/// call it sees, which replay makes immediately after taking its own.
/// Per-arrival records (20 bytes each, see record_bytes()) are sized to the
/// trace up front, so the memory a phase takes does not depend on how many
/// requests it got through.
class TimedPipeline final : public wnf::load::Pipeline {
 public:
  TimedPipeline(wnf::load::Pipeline& inner,
                const wnf::load::ArrivalTrace& schedule,
                TimedPipelineOptions options, SpanLog* log = nullptr,
                const char* layer = "serve");

  bool try_submit(std::vector<double> x) override;
  bool poll(wnf::serve::RequestResult& out) override;
  std::size_t outstanding() const override { return inner_.outstanding(); }
  wnf::serve::ServeReport report() const override { return inner_.report(); }

  /// Arrival indices the deployment accepted, in id order.
  std::span<const std::uint32_t> admitted() const {
    return {admitted_.data(), admitted_count_};
  }
  /// result_digest() of each delivered request, by id.
  std::span<const std::uint64_t> digests() const {
    return {digests_.data(), delivered_};
  }
  std::size_t submitted() const { return submit_calls_; }
  std::size_t refused() const { return submit_calls_ - admitted_count_; }
  std::size_t delivered() const { return delivered_; }
  std::size_t undelivered() const { return admitted_count_ - delivered_; }
  bool ids_in_order() const { return ids_in_order_; }
  /// Bytes of the untraced per-arrival records: the benchmark's own share
  /// of the process's memory while a phase runs.
  std::size_t record_bytes() const;

  /// Sojourn (µs, from the scheduled arrival) of every submitted arrival.
  /// Refused or undelivered arrivals are censored at `end`, the instant the
  /// phase gave up on them: they count as missing any latency limit.
  std::vector<double> sojourns_us(Clock::time_point end) const;

  // Traced-mode observations (empty without a span log).
  const std::vector<double>& lateness_us() const { return lateness_us_; }
  const std::vector<double>& residence_us() const { return residence_us_; }
  const std::vector<double>& outstanding_samples() const { return depth_; }
  double submit_ns_per_call() const;
  double poll_ns_per_delivery() const;

 private:
  void mark_origin();

  wnf::load::Pipeline& inner_;
  const wnf::load::ArrivalTrace& schedule_;
  TimedPipelineOptions options_;
  SpanLog* log_;
  std::uint32_t submit_name_ = 0;
  std::uint32_t poll_name_ = 0;

  std::int64_t origin_ns_ = -1;
  std::size_t submit_calls_ = 0;
  std::size_t admitted_count_ = 0;
  std::size_t delivered_ = 0;
  bool ids_in_order_ = true;
  // Sized to the trace: admitted_ by admission order, the rest by id.
  std::vector<std::uint32_t> admitted_;
  std::vector<std::int64_t> delivered_ns_;
  std::vector<std::uint64_t> digests_;

  std::vector<std::int64_t> submit_return_ns_;
  std::vector<double> lateness_us_;
  std::vector<double> residence_us_;
  std::vector<double> depth_;
  std::int64_t submit_total_ns_ = 0;
  std::int64_t poll_total_ns_ = 0;
};

/// The output check of one replay: the inputs `timed` admitted are
/// submitted in id order to a fresh ReplicaPool of `config`'s shape under
/// `timeline` and drained synchronously, in queue-sized chunks (results do
/// not depend on chunking, so the check holds one chunk at a time).
/// Returns how many of the delivered results differ, bit for bit, from
/// that drain. With `completions` set, the drain's simulated completion
/// times of the delivered ids are appended to it.
std::size_t count_mismatches(const wnf::nn::FeedForwardNetwork& net,
                             wnf::serve::ServeConfig config,
                             const wnf::serve::FaultTimeline& timeline,
                             std::span<const std::vector<double>> inputs,
                             const TimedPipeline& timed,
                             std::vector<double>* completions = nullptr);

/// Ring-transport registry counters summed over every fleet a run drove,
/// with their base: the requests those fleets delivered.
struct RingCounts {
  double slots = 0.0, doorbells = 0.0, spins = 0.0, sleeps = 0.0;
  double restarts = 0.0, resubmitted = 0.0;
  double delivered = 0.0;

  /// Adds `host`'s counters (reset by every rebind) and its deliveries.
  void add(const wnf::transport::WorkerHost& host, std::size_t delivered);
  /// Sets the transport.* metrics and prints the counts with their base.
  void report(Outcome& out) const;
};

// ---------------------------------------------------------------- ladder

/// The layer ladder's inputs: the workload's own network, inputs, fault
/// plan and latency model, run single-threaded rung by rung.
struct LadderSpec {
  const wnf::nn::FeedForwardNetwork* net = nullptr;
  std::vector<std::vector<double>> probes;
  wnf::fault::FaultPlan plan;
  wnf::dist::LatencyModel latency;
  std::vector<std::size_t> cut;
  std::uint64_t seed = 1;
};

/// Runs gemv -> forward -> Injector -> simulator -> simulator + latency ->
/// pool -> fleet -> replay, prints each rung's marginal cost and its share
/// of the top rung, and sets the ladder.* metrics (ns per probe). The
/// replay rung's fleet adds to `rings`. Returns the number of rungs that
/// hit their deadline.
std::size_t run_ladder(const LadderSpec& spec, SpanLog* log, Outcome& out,
                       RingCounts& rings);

// ------------------------------------------------------------ workloads

Outcome run_campaign(const RunOptions& options);
/// `fleet` selects the WorkerHost deployment (serve_fleet) over the
/// in-process ReplicaPool (serve_pool).
Outcome run_serve(const RunOptions& options, bool fleet);

/// One set-up of a workload, as the run itself does it first, in s; `out`
/// fails if the set-up does. Run in a fresh process (--setup-only), it is
/// a cold set-up: thread start, first touch and heap growth included.
double campaign_setup_s(const RunOptions& options, Outcome& out);
double serve_setup_s(const RunOptions& options, bool fleet, Outcome& out);

/// setup_s: the median of `n` cold set-ups of `workload`, each in a fresh
/// process running this binary with --setup-only, one after another.
/// Fails `out` if any of them fails.
double cold_setup_s(const RunOptions& options, const std::string& workload,
                    int n, Outcome& out);

/// Host speed, independent of the library: ns per 128x128 matrix-vector
/// product in plain loops on one thread, median of several passes. A run
/// prints it at its start and end, so a change in host speed between two
/// sets of runs shows next to the figures it moved.
double host_reference_ns();

/// A run's CPU cost: process CPU time per operation in each measured unit
/// (one certification, one overload phase), and the host reference timed
/// after each unit. Reported in reference matvecs, the ratio of the two
/// medians, which a change in host speed moves much less than either.
struct CpuCost {
  std::vector<double> per_op_ns;
  std::vector<double> ref_ns;

  double us() const { return median(per_op_ns) / 1e3; }
  double in_ref() const { return median(per_op_ns) / median(ref_ns); }
  void print() const {
    std::printf("cpu per op: %.4f us; host reference %.1f ns (medians of %zu)"
                "\n",
                us(), median(ref_ns), ref_ns.size());
  }
};

/// CPU time (user + system, every thread) this process has used, in s.
double process_cpu_s();

/// Peak resident memory of this process so far, in MB.
double peak_rss_mb();

/// Host shape line printed with every result.
std::string host_shape();

/// Self-tests of the benchmark's own machinery; returns failures.
int run_selftest();

}  // namespace wnfbench
