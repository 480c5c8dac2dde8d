// The host side of the multi-process deployment: spawns worker processes
// over socketpair + fork, drives them with a nonblocking poll() event loop,
// and realises crash faults as *real process deaths* — a scripted crash
// window SIGKILLs the worker, the host detects the death, resubmits that
// worker's in-flight requests to the survivors, and respawns the worker at
// the recovery boundary.
//
// The WorkerHost is the second executor behind serve::Frontend, with
// threads replaced by processes: the front owns admission, ids, Rng
// splits, the fault timeline and delivery — and with them the determinism
// contract (see serve/frontend.hpp) — while the host owns only how
// accepted requests execute. Probes cross the process boundary through
// per-worker shared-memory rings, each slot carrying the request's split
// Rng state; a socketpair per worker carries the transport::Codec control
// frames and the rings' doorbell bytes. Worker deaths move *where* a
// request is computed, never *what* it computes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dist/latency.hpp"
#include "dist/sim.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "transport/codec.hpp"
#include "transport/ring.hpp"
#include "serve/frontend.hpp"
#include "serve/report.hpp"
#include "serve/timeline.hpp"
#include "util/contract.hpp"

namespace wnf::transport {

/// Shape of one multi-process deployment.
struct TransportConfig {
  std::size_t workers = 1;  ///< worker processes, one simulator each
                            ///< (0 means hardware concurrency)
  std::size_t queue_capacity = 4096;  ///< outstanding requests (accepted,
                                      ///< not yet delivered) before shedding
  dist::SimConfig sim;             ///< per-replica channel capacity
  dist::LatencyModel latency;  ///< per-request, per-neuron latency draws
  /// Optional Corollary-2 straggler cut, size L (empty = full waits).
  std::vector<std::size_t> straggler_cut;
  std::uint64_t seed = 0x5eed;  ///< root of the per-request Rng::split tree
  /// Slots per direction in each worker's shared-memory rings, and the
  /// per-worker in-flight window: the host never has more than this many
  /// probes dispatched and unanswered on one worker, so the rings never
  /// fill. Results are bit-identical at any window; a 64-wide request
  /// slot is 640 bytes, so the default costs ~22 KiB per worker.
  std::size_t ring_capacity = 32;
  /// Test-only: when a dispatched request id matches, its worker tears the
  /// result slot — begin_seq plus a partial payload, then SIGKILL — so the
  /// torn-slot detection and resubmission path can be exercised
  /// deterministically. Fires at most once per host; ~0 disarms.
  std::uint64_t debug_tear_result_at = ~std::uint64_t{0};
  /// When non-empty, every worker death (scripted SIGKILL or surprise
  /// EOF) dumps a bounded forensic JSON artifact into this directory
  /// (created if missing) — see obs::PostmortemWriter for the schema.
  std::string postmortem_dir;
  /// Host-side flight-recorder window per worker: the last N events the
  /// driver noted about that worker (dispatches, harvests, kills,
  /// telemetry flushes) that a postmortem replays. Only kept when
  /// postmortem_dir is set; never touched on the probe hot path.
  std::size_t postmortem_events = 48;
};

/// What changes when a live fleet is rebound (WorkerHost::rebind). Unset
/// fields keep their current values; the seed is *re-applied* either way —
/// a rebound deployment always restarts its request ids at 0 and reseeds
/// its root RNG, so it is bit-identical to a freshly constructed host.
struct RebindOptions {
  std::optional<std::uint64_t> seed;
  std::optional<std::vector<std::size_t>> straggler_cut;
  std::optional<std::size_t> queue_capacity;
};

/// One scripted worker-process death: when the dispatch frontier reaches
/// request `start`, worker `worker` is SIGKILLed for real; when it reaches
/// `end`, the worker is respawned (the recovery boundary). Windows are
/// timed in request ids like serve::FaultTimeline windows, so a scenario
/// replays identically whatever the machine speed. Pass
/// serve::FaultTimeline::kForever as `end` for a death with no scripted
/// recovery (the host still force-respawns if the deployment would
/// otherwise have no worker left to serve pending traffic).
struct CrashWindow {
  std::size_t worker = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// A deployment of worker processes serving batched traffic over
/// shared-memory rings through an asynchronous submission/completion
/// pipeline.
///
/// Threading contract: one driver thread calls submit / poll / wait /
/// drain / set_timeline / report; the host is not thread-safe across
/// drivers, and it owns no threads of its own — parallelism lives across
/// the worker processes. Progress happens inside a nonblocking *pump*
/// that poll, wait, and drain share: each pump runs the crash script,
/// dispatches queued requests into the rings of workers with window room,
/// flushes sockets, and harvests finished results into the front's
/// completion queue, which merges them back into id order. Because
/// submission never blocks on execution and poll() never blocks at all,
/// one driver thread can keep several fleets saturated at once by
/// interleaving their pumps.
///
/// A host is a *reusable fleet*: workers are forked once at construction
/// and survive across campaigns — rebind() swaps the network, cut, seed,
/// and timeline on the live processes (the same Bind + Segments frames a
/// spawn ships) and resets the request stream, making the rebound
/// deployment bit-identical to a freshly constructed host without paying
/// fork again.
class WorkerHost {
 public:
  /// True when this platform supports the runtime (POSIX fork/socketpair).
  static bool available();

  /// Binds to `net` (kept by reference; must outlive the host), spawns the
  /// worker processes, and ships each one the network and configuration.
  /// Aborts on unsupported platforms — check available() first.
  WorkerHost(const nn::FeedForwardNetwork& net, TransportConfig config);

  /// Spawns the worker fleet *unbound*: processes fork and say hello, but
  /// no network ships until the first rebind(). Lets a deployment pay its
  /// fork cost before it knows what it will serve. Submitting or draining
  /// an unbound host is a contract violation.
  explicit WorkerHost(TransportConfig config);

  /// Rebinds the live fleet to `net` (kept by reference; must outlive the
  /// host): ships every worker the Bind + Segments frames a spawn ships,
  /// re-applies the seed (ids restart at 0), clears the timeline and
  /// crash script, and resets the per-deployment report — the rebound
  /// fleet serves exactly what a freshly constructed host would, bit for
  /// bit, with zero new forks. Workers a previous crash script left dead
  /// rejoin first. The one exception is a network wider than the request
  /// slots: the fleet shuts down, maps wider rings, and forks afresh
  /// (total_spawns() counts it). Requires an idle pipeline (no request
  /// outstanding across the swap).
  void rebind(const nn::FeedForwardNetwork& net, RebindOptions options = {});

  /// False only between the unbound constructor and the first rebind().
  bool bound() const { return net_ != nullptr; }

  /// Shuts every worker down (shutdown frame, then reap; SIGKILL as the
  /// last resort for a worker that ignores it).
  ~WorkerHost();

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Installs a fault scenario (validated and segmented against the
  /// network, then broadcast to every worker). Applies to requests by id
  /// from here on. Requires an idle pipeline (no request outstanding).
  void set_timeline(serve::FaultTimeline timeline);

  /// Installs the worker-death script. Windows already fired keep their
  /// state; fresh windows apply from the current dispatch frontier on.
  void set_crash_script(std::vector<CrashWindow> script);

  /// Admission through the front (serve::Frontend::submit /
  /// submit_batch), which refuses malformed requests and sheds on a full
  /// queue; the host queues accepted requests for the next pump and never
  /// blocks on execution. Requires a bound fleet.
  bool submit(std::vector<double> x);
  std::size_t submit_batch(std::span<const std::vector<double>> batch);

  /// Delivery through the front, pumping the pipeline (crash script
  /// included) while a result is outstanding: poll() pumps once without
  /// blocking, wait() until the next id arrives, drain() until every
  /// outstanding request has.
  bool poll(serve::RequestResult& out);
  serve::RequestResult wait();
  std::vector<serve::RequestResult> drain();

  /// Requests accepted and not yet delivered through poll()/wait().
  std::size_t pending() const { return front_.pending(); }
  /// Submissions refused as malformed (serve::Frontend::invalid).
  std::size_t invalid() const { return front_.invalid(); }

  /// Throughput, completion statistics, and process-fault counters
  /// (rejected / resubmitted / worker_restarts)
  /// over everything delivered since construction or the last rebind() —
  /// rebinding starts a fresh logical deployment, so its report starts
  /// fresh too. `rebinds` is the exception: it counts over the fleet's
  /// whole lifetime.
  serve::ServeReport report() const;

  std::size_t worker_count() const { return workers_.size(); }
  std::size_t alive_workers() const;
  /// Worker processes forked over the fleet's lifetime (initial spawns +
  /// every respawn, across rebinds). The fork-at-most-once guarantee for
  /// repeated campaigns is `total_spawns() == worker_count()` plus however
  /// many crash respawns the scripts demanded.
  std::size_t total_spawns() const { return total_spawns_; }
  /// Times this fleet was rebound (lifetime).
  std::size_t rebinds() const { return rebinds_; }
  /// Input doubles one request slot carries (at least kMinSlotDoubles).
  std::size_t slot_doubles() const {
    return workers_.front().rings->slot_doubles();
  }
  /// Probe slots written into request rings since construction / rebind.
  std::size_t ring_slots_written() const {
    return counter_value(ring_slots_count_);
  }
  /// Torn result slots (worker died mid-write) detected and recovered by
  /// resubmission.
  std::size_t ring_torn_recovered() const {
    return counter_value(ring_torn_count_);
  }
  /// This deployment's metric registry (counters and latency histograms
  /// the report derives from) — live, for the metrics JSON exporter.
  const obs::MetricsRegistry& metrics() const { return front_.metrics(); }
  std::uint64_t next_request_id() const { return front_.next_id(); }
  const nn::FeedForwardNetwork& network() const {
    WNF_EXPECTS(net_ != nullptr);
    return *net_;
  }

  /// The worker's process id (for fault-injection tests that kill a live
  /// worker externally), or -1 when the worker is currently dead.
  int worker_pid(std::size_t worker) const;

  // --- Continuous-monitoring health mirror --------------------------------
  // Relaxed-atomic per-worker health the driver publishes at pump
  // boundaries (never per probe — no new atomics in request flow), for an
  // obs::Watchdog sampling from its own thread. See
  // transport::attach_fleet_watchdog (monitor.hpp) for the canonical
  // wiring.

  /// Opaque progress odometer for worker `w`: results harvested from it
  /// plus times it (re)spawned. Any change between samples means the
  /// worker moved; frozen while health_active() means it is wedged.
  std::uint64_t health_progress(std::size_t w) const;
  /// True when worker `w` is alive and owes results (a stall deadline
  /// should be armed).
  bool health_active(std::size_t w) const;
  /// The worker's pid as last published, -1 when dead.
  int health_pid(std::size_t w) const;
  /// Lifetime results delivered through poll()/wait() — the fleet-level
  /// progress odometer (paired with health_outstanding() as its gate).
  std::uint64_t health_delivered() const;
  std::uint64_t health_outstanding() const;

  /// SIGKILLs worker `w`'s process. Safe from any thread (the watchdog's
  /// forced-respawn hook): the driver sees the EOF on its next pump and
  /// the existing recovery machinery (resubmit to survivors + respawn)
  /// takes over — results are bit-identical by construction, because
  /// killing a worker at any moment never changes what gets computed.
  void force_kill_worker(std::size_t w);

  /// The postmortem writer, or nullptr when postmortem_dir was empty.
  const obs::PostmortemWriter* postmortems() const {
    return postmortem_.get();
  }

 private:
  /// Both public constructors: `net` null forks the fleet unbound.
  WorkerHost(const nn::FeedForwardNetwork* net, TransportConfig config);

  /// One worker process as the host sees it.
  struct WorkerState {
    int pid = -1;
    int fd = -1;
    bool alive = false;
    bool hello_seen = false;
    std::uint64_t blocked_until = 0;   ///< scripted respawn boundary
    std::vector<std::uint8_t> inbox;   ///< bytes read, not yet framed
    std::vector<std::uint8_t> outbox;  ///< bytes queued, not yet written
    /// Request ids awaiting results, in dispatch order. A deque: workers
    /// answer in order, so the ring harvest pops the front once per probe
    /// — O(1) where a vector would memmove the whole window.
    std::deque<std::uint64_t> inflight;
    /// Transient dispatch marker: this worker received slots in the
    /// current call and owes one doorbell check at the end of it.
    bool ring_dispatched = false;
    /// host_clock - worker_clock at Hello receipt: shifts this worker's
    /// Telemetry events onto the host trace timebase.
    std::int64_t clock_offset_ns = 0;
    /// Shared-memory ring pair, mapped before the first fork and reused
    /// (reset, not remapped) across respawns; only a rebind to a wider
    /// network maps a new one.
    std::shared_ptr<WorkerRings> rings;
    /// Control-plane frames enqueued to this worker process (bind,
    /// segments). Stamped into each request slot so the worker can defer
    /// ring probes that would overtake an in-flight control frame.
    std::uint64_t epoch = 0;
    /// The host control_gen_ this worker's applied deployment state
    /// matches; lets rebind() skip re-sending an identical deployment.
    std::uint64_t control_gen = 0;
    /// Results harvested from this worker, lifetime —
    /// half of the health-mirror progress odometer. Plain field: only the
    /// driver touches it; publish_health() copies it into the atomics.
    std::uint64_t harvested_total = 0;
    /// Times this slot forked a process, lifetime (the other half).
    std::uint64_t spawns = 0;
    /// Host-side flight recorder for postmortems: the last few events the
    /// driver noted about this worker, bounded at
    /// TransportConfig::postmortem_events. Empty when postmortems are off.
    std::deque<obs::TraceEvent> recent;
    /// Registry snapshot at this worker's last Telemetry flush (or its
    /// spawn) — postmortems report counter deltas against it. Only
    /// maintained when postmortems are on.
    obs::MetricsSnapshot flush_base;
  };

  struct ScriptWindow {
    CrashWindow window;
    bool fired = false;
  };

  /// Maps every worker a fresh ring pair with request slots
  /// `slot_doubles` wide. Only with no worker process alive.
  void map_rings(std::size_t slot_doubles);
  void spawn(std::size_t w);
  /// Clean shutdown of a live worker: Shutdown frame, final telemetry
  /// (when tracing), close, bounded reap (SIGKILL as the last resort).
  void retire(WorkerState& worker);
  /// Queues the cached Bind then Segments frame: the one way a worker
  /// learns a deployment, whether freshly spawned or rebound live.
  void enqueue_deployment(WorkerState& worker);
  void enqueue_segments(WorkerState& worker);
  BindMsg make_bind() const;
  /// Marks `w` dead, reaps the process, and moves its in-flight requests
  /// back to the resubmission queue. `expected` distinguishes scripted
  /// kills from spontaneous deaths (which respawn immediately).
  void worker_died(std::size_t w, bool expected);
  void kill_worker(std::size_t w, std::uint64_t recover_at);
  void respawn(std::size_t w);
  /// Applies the crash script at dispatch frontier `frontier_id`: fires
  /// due kills, respawns workers past their recovery boundary.
  void run_crash_script(std::uint64_t frontier_id);
  bool flush_outbox(std::size_t w);  ///< false when the write found a corpse

  /// One turn of the event loop: crash-script maintenance, dispatch of
  /// queued/resubmitted requests into workers with window room, socket
  /// flush, a poll() that blocks up to the timeout only when `block`, and
  /// a harvest of every committed result into the completion queue.
  void pump(bool block);
  /// Writes queued/resubmitted probes directly into request-ring slots
  /// (least-loaded placement within the ring_capacity window), ringing
  /// the doorbell of any parked worker.
  void dispatch();
  /// Drains every live worker's committed result slots into the
  /// completion queue. Returns how many results it harvested.
  std::size_t harvest_rings();
  /// Drains one worker's committed result slots. False on a protocol
  /// violation (unknown id, bad status) — the caller declares the worker
  /// dead, exactly like a malformed frame.
  bool harvest_result_ring(std::size_t w, std::size_t& harvested);
  /// Bounded spin across the live result rings (the spin half of the
  /// host's spin-then-sleep wait). True when a result showed up.
  bool spin_for_results();
  /// Queues one doorbell byte to `w` (flushed with the normal outbox).
  void ring_doorbell(std::size_t w);
  /// Re-encodes the Bind and Segments frames, bumping control_gen_ iff
  /// either differs from its cache. Every control-plane send path reuses
  /// the cached frames — one encode per refresh instead of one per worker
  /// per spawn/rebind. refresh_bind=false skips re-serializing the network
  /// (timeline-only changes cannot move the Bind frame).
  void refresh_control_frames(bool refresh_bind = true);
  /// Reads and frames everything `w`'s socket has (Hello, Telemetry,
  /// doorbells); EOF or a protocol violation declares the worker dead.
  void service_worker(std::size_t w, bool readable, bool writable);
  /// The front's poll() plus the host's own delivery bookkeeping: the
  /// lifetime odometer, and a health publish when the pipeline goes idle.
  bool deliver(serve::RequestResult& out);
  /// Ingests one worker Telemetry frame into the process
  /// TraceLog, clock-shifted by the worker's Hello offset. False when the
  /// payload does not decode (protocol violation).
  bool ingest_telemetry(const WorkerState& worker, const Frame& frame);
  /// After the Shutdown frame (retire()), reads `worker`'s socket
  /// until EOF (bounded wait) so the worker's final telemetry flush is
  /// harvested instead of lost with the close.
  void drain_final_telemetry(WorkerState& worker);
  /// Copies driver-owned health (per-worker progress/inflight/pid, fleet
  /// delivered/outstanding) into the relaxed-atomic mirror. Called at
  /// pump boundaries and when the pipeline goes idle — pump granularity,
  /// never per probe.
  void publish_health();
  /// Appends one event to `w`'s bounded flight-recorder window. No-op
  /// unless postmortems are on.
  void note_worker_event(std::size_t w, obs::TraceName name,
                         std::uint64_t id, std::uint64_t value);
  /// Builds and writes the forensic artifact for `w`'s death (worker_died
  /// calls this before it clears the in-flight list).
  void write_postmortem(std::size_t w, bool expected, std::uint64_t torn,
                        int pid);

  const nn::FeedForwardNetwork* net_ = nullptr;  ///< null until first bind
  TransportConfig config_;
  serve::Frontend front_;
  std::vector<WorkerState> workers_;
  std::vector<ScriptWindow> script_;
  std::deque<serve::PendingRequest> queue_;  ///< accepted, not dispatched
  /// Dispatched, unanswered — kept by id so a worker death can resubmit
  /// the exact request (input + split RNG state) to a survivor.
  std::unordered_map<std::uint64_t, serve::PendingRequest> inflight_;
  std::vector<std::uint64_t> resubmit_;  ///< ids orphaned by deaths,
                                         ///< ascending (oldest first)

  /// Spontaneous deaths since the last harvested result. A worker fleet
  /// that keeps dying without serving anything (e.g. a config whose
  /// contract checks abort inside every worker) must fail the host
  /// loudly, not livelock in a fork-respawn storm.
  std::size_t deaths_without_progress_ = 0;

  static std::size_t counter_value(const obs::Counter* counter) {
    return counter ? static_cast<std::size_t>(counter->value()) : 0;
  }

  // The fault/ring counters live in the front's registry (report() derives
  // from it; rebind() resets it). rebinds_ and total_spawns_ are lifetime,
  // like the fleet itself.
  obs::Counter* resubmitted_count_ = nullptr;
  obs::Counter* restarts_count_ = nullptr;
  obs::Counter* ring_slots_count_ = nullptr;
  obs::Counter* ring_doorbells_count_ = nullptr;
  obs::Counter* ring_torn_count_ = nullptr;
  obs::Counter* ring_spin_count_ = nullptr;
  obs::Counter* ring_sleep_count_ = nullptr;
  std::size_t rebinds_ = 0;
  std::size_t total_spawns_ = 0;
  /// The debug_tear_result_at hook has fired (it tears exactly one slot:
  /// the resubmitted probe must ship clean or the fleet would relive the
  /// crash forever).
  bool tear_fired_ = false;
  // Cached control-plane frames (one encode per refresh, not one per
  // worker per spawn/rebind; identical rebinds skip the send entirely).
  // control_gen_ counts content changes; workers record the generation
  // they were last synced to.
  std::vector<std::uint8_t> bind_frame_;
  std::vector<std::uint8_t> segments_frame_;
  std::uint64_t control_gen_ = 0;

  /// One cache line per worker of relaxed atomics — the only state the
  /// watchdog thread reads. Fixed-size array allocated at construction,
  /// so readers never race a reallocation.
  struct alignas(64) WorkerHealth {
    std::atomic<std::uint64_t> progress{0};
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<int> pid{-1};
    std::atomic<bool> alive{false};
  };
  std::unique_ptr<WorkerHealth[]> health_;
  std::atomic<std::uint64_t> health_delivered_{0};
  std::atomic<std::uint64_t> health_outstanding_{0};
  /// Lifetime deliveries (plain: driver-only; mirrored into
  /// health_delivered_ by publish_health()).
  std::uint64_t delivered_total_ = 0;
  /// Non-null when TransportConfig::postmortem_dir was set.
  std::unique_ptr<obs::PostmortemWriter> postmortem_;
};

}  // namespace wnf::transport
