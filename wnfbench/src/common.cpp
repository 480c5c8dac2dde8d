#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "transport/worker.hpp"
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wnfbench {

void busy_wait_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_reference_ns() {
  constexpr std::size_t kN = 128;
  constexpr int kProducts = 200;
  constexpr int kPasses = 9;
  std::vector<double> m(kN * kN), x(kN, 1.0), y(kN);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i % 17) / 17.0 - 0.5;
  }
  std::vector<double> per_product;
  volatile double sink = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::int64_t start = now_ns();
    for (int k = 0; k < kProducts; ++k) {
      for (std::size_t r = 0; r < kN; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < kN; ++c) acc += m[r * kN + c] * x[c];
        y[r] = acc;
      }
      x.swap(y);
      x[0] = 1.0 / (1.0 + std::abs(x[0]));  // keeps values bounded
    }
    per_product.push_back(static_cast<double>(now_ns() - start) / kProducts);
    sink = sink + x[0];
  }
  return median(per_product);
}

double cold_setup_s(const RunOptions& options, const std::string& workload,
                    int n, Outcome& out) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    out.fail("cold set-up: cannot find this binary");
    return 0.0;
  }
  self[len] = '\0';
  const std::string seed = std::to_string(options.seed);
  const std::string seconds = std::to_string(options.seconds);
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      out.fail("cold set-up: pipe failed");
      break;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const char* argv[] = {self,          "--setup-only", "--workload",
                          workload.c_str(), "--seed",     seed.c_str(),
                          "--seconds",   seconds.c_str(), nullptr};
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, self, &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[256];
    ssize_t got = 0;
    while (spawned == 0 && (got = read(fds[0], buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    int status = 0;
    if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      out.fail("cold set-up " + std::to_string(i) + " failed: " + text);
      break;
    }
    times.push_back(std::strtod(text.c_str(), nullptr));
  }
  std::printf("cold set-ups (s, one process each):");
  for (const double t : times) std::printf(" %.4f", t);
  std::printf("\n");
  return median(times);
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string host_shape() {
  return "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + cpu_model() + "\" compiler=\"" WNFBENCH_COMPILER
         "\" build=" WNFBENCH_BUILD_TYPE " obs_tracing=" WNFBENCH_OBS_TRACING
         " transport=" +
         (wnf::transport::transport_available() ? "available" : "unavailable");
}

// ------------------------------------------------------------- span log

std::uint32_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::begin(std::uint32_t name, std::uint64_t id) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, id, now_ns(), 0});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanLog::leaf(std::uint32_t name, std::uint64_t id,
                   std::int64_t start_ns, std::int64_t end_ns) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, id, start_ns, end_ns});
}

void SpanLog::print_self_times(const char* title) const {
  struct Row {
    std::size_t count = 0;
    double total_ns = 0.0;
    double child_ns = 0.0;
  };
  std::vector<Row> rows(names_.size());
  for (const Span& span : spans_) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    rows[span.name].count += 1;
    rows[span.name].total_ns += duration;
    if (span.parent >= 0) {
      rows[spans_[static_cast<std::size_t>(span.parent)].name].child_ns +=
          duration;
    }
  }
  std::printf("%s\n  %-34s %10s %12s %12s\n", title, "span", "count",
              "total ms", "self ms");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].count == 0) continue;
    std::printf("  %-34s %10zu %12.3f %12.3f\n", names_[i].c_str(),
                rows[i].count, rows[i].total_ns / 1e6,
                (rows[i].total_ns - rows[i].child_ns) / 1e6);
  }
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,id,parent,start_ns,end_ns\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.id << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

// --------------------------------------------------------- ring counts

void RingCounts::add(const wnf::transport::WorkerHost& host,
                     std::size_t requests) {
  for (const auto& row : host.metrics().snapshot().counters) {
    const auto v = static_cast<double>(row.value);
    if (row.name == "transport.ring_slots_written") slots += v;
    if (row.name == "transport.ring_doorbells") doorbells += v;
    if (row.name == "transport.ring_spin_wakeups") spins += v;
    if (row.name == "transport.ring_sleep_wakeups") sleeps += v;
    if (row.name == "transport.worker_restarts") restarts += v;
    if (row.name == "transport.resubmitted") resubmitted += v;
  }
  delivered += static_cast<double>(requests);
}

void RingCounts::report(Outcome& out) const {
  const double base = delivered > 0.0 ? delivered : 1.0;
  out.metrics["transport.slots_per_request"] = slots / base;
  out.metrics["transport.doorbells_per_request"] = doorbells / base;
  out.metrics["transport.spin_wakeups_per_request"] = spins / base;
  out.metrics["transport.sleep_wakeups_per_request"] = sleeps / base;
  out.metrics["transport.worker_restarts"] = restarts;
  out.metrics["transport.resubmitted"] = resubmitted;
  std::printf("ring counters over %.0f delivered requests: slots %.0f, "
              "doorbells %.0f, spin wakeups %.0f, sleep wakeups %.0f, "
              "restarts %.0f, resubmitted %.0f\n",
              delivered, slots, doorbells, spins, sleeps, restarts,
              resubmitted);
}

// ------------------------------------------------------ timing decorator

namespace {

std::uint64_t mix(std::uint64_t z) {  // splitmix64 finaliser
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t result_digest(const wnf::serve::RequestResult& result) {
  return mix(std::bit_cast<std::uint64_t>(result.output) ^
             mix(std::bit_cast<std::uint64_t>(result.completion_time) ^
                 mix(result.resets_sent)));
}

TimedPipeline::TimedPipeline(wnf::load::Pipeline& inner,
                             const wnf::load::ArrivalTrace& schedule,
                             TimedPipelineOptions options, SpanLog* log,
                             const char* layer)
    : inner_(inner),
      schedule_(schedule),
      options_(options),
      log_(log),
      admitted_(schedule.size()),
      delivered_ns_(schedule.size()),
      digests_(schedule.size()) {
  if (log_) {
    submit_name_ = log_->intern(std::string(layer) + ".try_submit");
    poll_name_ = log_->intern(std::string(layer) + ".poll");
    submit_return_ns_.reserve(schedule.size());
    lateness_us_.reserve(schedule.size());
    residence_us_.reserve(schedule.size());
    depth_.reserve(2 * schedule.size());
  }
}

void TimedPipeline::mark_origin() {
  if (origin_ns_ < 0) origin_ns_ = now_ns();
}

bool TimedPipeline::try_submit(std::vector<double> x) {
  mark_origin();
  const std::size_t arrival = submit_calls_++;
  const std::int64_t start = log_ ? now_ns() : 0;
  if (options_.submit_delay_ns > 0) busy_wait_ns(options_.submit_delay_ns);
  const bool accepted = inner_.try_submit(std::move(x));
  if (accepted) {
    admitted_[admitted_count_++] = static_cast<std::uint32_t>(arrival);
  }
  if (log_) {
    const std::int64_t end = now_ns();
    submit_total_ns_ += end - start;
    log_->leaf(submit_name_, accepted ? admitted_count_ - 1 : ~0ull, start,
               end);
    const double scheduled_ns = schedule_.arrivals[arrival].time * 1e9;
    lateness_us_.push_back(
        (static_cast<double>(start - origin_ns_) - scheduled_ns) / 1e3);
    if (accepted) submit_return_ns_.push_back(end);
    depth_.push_back(static_cast<double>(inner_.outstanding()));
  }
  return accepted;
}

bool TimedPipeline::poll(wnf::serve::RequestResult& out) {
  mark_origin();
  const std::int64_t start = log_ ? now_ns() : 0;
  if (options_.poll_delay_ns > 0) busy_wait_ns(options_.poll_delay_ns);
  const bool ready =
      delivered_ < options_.deliver_limit && inner_.poll(out);
  if (!ready) {
    if (log_) poll_total_ns_ += now_ns() - start;
    if (Clock::now() > options_.deadline && outstanding() > 0) {
      throw DeadlineExceeded();
    }
    return false;
  }
  const std::int64_t end = now_ns();
  if (out.id != delivered_) ids_in_order_ = false;
  delivered_ns_[delivered_] = end;
  digests_[delivered_] = result_digest(out);
  if (log_) {
    poll_total_ns_ += end - start;
    log_->leaf(poll_name_, out.id, start, end);
    residence_us_.push_back(
        static_cast<double>(end - submit_return_ns_[delivered_]) / 1e3);
    depth_.push_back(static_cast<double>(inner_.outstanding()));
  }
  ++delivered_;
  return true;
}

std::vector<double> TimedPipeline::sojourns_us(Clock::time_point end) const {
  const std::int64_t end_ns_abs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          end.time_since_epoch())
          .count();
  std::vector<double> sojourns;
  sojourns.reserve(submit_calls_);
  std::size_t next_admitted = 0;
  for (std::size_t arrival = 0; arrival < submit_calls_; ++arrival) {
    std::int64_t done = end_ns_abs;  // refused or undelivered: censored
    if (next_admitted < admitted_count_ &&
        admitted_[next_admitted] == arrival) {
      if (next_admitted < delivered_) done = delivered_ns_[next_admitted];
      ++next_admitted;
    }
    const double scheduled_ns = schedule_.arrivals[arrival].time * 1e9;
    sojourns.push_back(
        (static_cast<double>(done - origin_ns_) - scheduled_ns) / 1e3);
  }
  return sojourns;
}

std::size_t TimedPipeline::record_bytes() const {
  return admitted_.size() * sizeof(admitted_[0]) +
         delivered_ns_.size() * sizeof(delivered_ns_[0]) +
         digests_.size() * sizeof(digests_[0]);
}

double TimedPipeline::submit_ns_per_call() const {
  return submit_calls_ == 0 ? 0.0
                            : static_cast<double>(submit_total_ns_) /
                                  static_cast<double>(submit_calls_);
}

double TimedPipeline::poll_ns_per_delivery() const {
  return delivered_ == 0 ? 0.0
                         : static_cast<double>(poll_total_ns_) /
                               static_cast<double>(delivered_);
}

std::size_t count_mismatches(const wnf::nn::FeedForwardNetwork& net,
                             wnf::serve::ServeConfig config,
                             const wnf::serve::FaultTimeline& timeline,
                             std::span<const std::vector<double>> inputs,
                             const TimedPipeline& timed,
                             std::vector<double>* completions) {
  constexpr std::size_t kChunk = 4096;
  config.replicas = 0;  // every core: results do not depend on the count
  config.queue_capacity = kChunk;
  wnf::serve::ReplicaPool pool(net, config);
  pool.set_timeline(timeline);
  const auto admitted = timed.admitted();
  const auto digests = timed.digests();
  std::size_t mismatched = 0;
  std::vector<std::vector<double>> batch;
  for (std::size_t i = 0; i < digests.size(); i += kChunk) {
    batch.clear();
    for (std::size_t j = i; j < std::min(i + kChunk, digests.size()); ++j) {
      batch.push_back(inputs[admitted[j] % inputs.size()]);
    }
    pool.submit_batch(batch);
    for (const auto& want : pool.drain()) {
      mismatched += result_digest(want) != digests[want.id];
      if (completions) completions->push_back(want.completion_time);
    }
  }
  return mismatched;
}

}  // namespace wnfbench
