#include "transport/worker.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WNF_TRANSPORT_POSIX 1
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <memory>
#include <span>
#include <sstream>

#include "dist/sim.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "serve/replica.hpp"
#include "transport/codec.hpp"
#include "transport/ring.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace wnf::transport {

#if !defined(WNF_TRANSPORT_POSIX)

bool transport_available() { return false; }

int worker_main(int, std::uint32_t, WorkerRings&) {
  WNF_EXPECTS(false && "transport workers need POSIX fork/socketpair");
  return 1;
}

#else

bool transport_available() { return true; }

namespace {

/// The worker's deployment state, built from a kBind frame: the network,
/// the shared replica step bound to it, and the timeline's segment plans.
struct Binding {
  nn::FeedForwardNetwork net;
  std::unique_ptr<serve::Replica> replica;
  std::vector<fault::FaultPlan> segments;

  void set_segments(std::vector<fault::FaultPlan> plans) {
    segments = std::move(plans);
    if (replica) replica->reset_segment();
  }
};

/// Blocking write of the whole frame (the worker end may block freely; the
/// nonblocking discipline lives in the host). False on EPIPE/host death.
bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Installs a kBind frame as the deployment state, whether the worker was
/// just spawned or is being rebound live. The Segments frame that follows
/// supplies the timeline.
bool apply_bind(const Frame& frame, Binding& binding) {
  const auto msg = Codec::decode_bind(frame.payload);
  if (!msg) return false;
  std::istringstream text(msg->network_text);
  auto net = nn::load_network(text);
  if (!net) return false;
  if (!msg->wait_counts.empty() &&
      msg->wait_counts.size() != net->layer_count() + 1) {
    return false;
  }
  binding.replica.reset();  // bound to the network about to be replaced
  binding.net = std::move(*net);
  binding.replica = std::make_unique<serve::Replica>(
      binding.net, msg->sim, msg->latency,
      std::vector<std::size_t>(msg->wait_counts.begin(),
                               msg->wait_counts.end()));
  binding.segments.clear();
  return true;
}

/// Evaluates one request slot on the replica, reading the input in place.
/// False when the probe is structurally invalid for the current binding
/// (the host never sends such a probe, so this is a protocol violation and
/// the worker exits).
bool evaluate_probe(const RequestSlot& req, Binding& binding,
                    dist::SimResult& outcome) {
  if (!binding.replica) return false;
  const std::span<const double> x{req.x(), req.x_count};
  if (x.size() != binding.net.input_dim()) return false;
  // No segment table yet means the fault-free timeline: one segment, 0.
  const std::uint32_t segment = req.segment;
  if (segment >= std::max<std::size_t>(binding.segments.size(), 1)) {
    return false;
  }
  static const fault::FaultPlan kNoFaults;
  const fault::FaultPlan& plan =
      binding.segments.empty() ? kNoFaults : binding.segments[segment];
  // The request's RNG stream is the host's split child, bit for bit.
  Rng request_rng;
  request_rng.set_state(req.rng_state);
  outcome = binding.replica->step(segment, plan, x, request_rng);
  return true;
}

/// Ships the worker's trace ring as one Telemetry frame and
/// clears it. A no-op when tracing recorded nothing (disabled or compiled
/// out), so a quiet worker costs the wire nothing. Called at the
/// deployment boundaries — Shutdown and just before a Bind applies — so
/// a SIGKILL loses exactly the events since the last boundary.
bool flush_telemetry(int fd) {
  auto [events, dropped] = obs::TraceLog::instance().drain_thread_ring();
  if (events.empty() && dropped == 0) return true;
  TelemetryMsg msg;
  msg.tid = 0;
  msg.dropped = dropped;
  msg.events = std::move(events);
  return send_all(fd, Codec::encode(MessageType::kTelemetry,
                                    Codec::encode_telemetry(msg)));
}

/// Outcome of one ring burst.
struct RingServe {
  std::size_t served = 0;
  bool violation = false;  ///< structurally invalid probe: exit 1
  bool host_gone = false;  ///< doorbell hit a closed socket: exit 0
};

/// Serves every committed request slot the ring holds: evaluate straight
/// out of the request slot, write the outcome straight into a result slot,
/// publish it with the commit word. A probe whose epoch is ahead of the
/// control frames applied so far is deferred — the bind/segments frame it
/// waits for is already in flight on the socket, and serving it early
/// would race the swap. Neither ring can overflow: the host keeps at most
/// ring-capacity probes in flight per worker, and a probe holds its
/// request slot until just before its result commits, then its result
/// slot until the host harvests it. So the result ring has room for the
/// head probe's result, and the host finds a free request slot whenever
/// the window has room. One doorbell byte goes out at the end of the
/// burst, and only when the host had published itself parked: waking the
/// host per slot would hand the CPU back and forth once per probe, while a
/// parked host loses nothing by sleeping until the whole burst is
/// committed (the flag handshake is seq_cst, so a host parking mid-burst
/// either sees the new tail in its recheck or is caught by this exchange).
RingServe serve_ring(WorkerRings& rings, Binding& binding,
                     std::uint64_t applied_epoch, int fd) {
  RingServe out;
  RequestSlot* req = nullptr;
  while (head_action(req = rings.peek_request(), applied_epoch) ==
         HeadAction::kServe) {
    const obs::ScopedSpan span(obs::TraceName::kWorkerExecute, req->id);
    dist::SimResult outcome;
    if (!evaluate_probe(*req, binding, outcome)) {
      out.violation = true;
      return out;
    }
    ResultSlot* res = rings.try_begin_result();
    WNF_ASSERT(res != nullptr && "in-flight window exceeds the result ring");
    if ((req->flags & kSlotFlagTearForTest) != 0) {
      // Crash-recovery test hook: die with the slot's begin_seq published
      // and a partial payload written but the commit word untouched — the
      // canonical torn slot the host must detect and resubmit around.
      res->id = req->id;
      ::kill(::getpid(), SIGKILL);
    }
    res->id = req->id;
    res->output = outcome.output;
    res->completion_time = outcome.completion_time;
    res->resets_sent = outcome.resets_sent;
    res->status = static_cast<std::uint8_t>(ProbeStatus::kOk);
    // Release the request slot before the result becomes visible: once the
    // host harvests it, the probe leaves the window, and the host may
    // refill the window up to a full request ring.
    rings.pop_request();
    rings.commit_result();
    ++out.served;
  }
  if (out.served > 0 && rings.take_result_doorbell()) {
    if (!send_all(fd, {kDoorbellByte})) out.host_gone = true;
  }
  return out;
}

}  // namespace

int worker_main(int fd, std::uint32_t worker_index, WorkerRings& rings) {
#if defined(SO_NOSIGPIPE)
  // Platforms without MSG_NOSIGNAL (macOS): a frame sent to a dead host
  // must fail with EPIPE (clean exit 1), not SIGPIPE.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
  // Fork hygiene: this process inherited the host's trace rings (and its
  // thread-local ring pointer) across fork(). Drop them — this worker's
  // events belong in rings of its own, shipped back as Telemetry frames.
  obs::TraceLog::instance().reset();
  HelloMsg hello;
  hello.worker_index = worker_index;
  hello.pid = static_cast<std::uint32_t>(::getpid());
  hello.clock_ns = obs::trace_clock_ns();
  if (!send_all(fd, Codec::encode(MessageType::kHello,
                                  Codec::encode_hello(hello)))) {
    return 1;
  }

  Binding binding;
  std::vector<std::uint8_t> buffer;
  // Control-plane frames applied so far; gates which ring probes may run
  // (a slot stamped with a later epoch waits for its control frame).
  std::uint64_t applied_epoch = 0;
  SpinBackoff backoff;
  std::uint8_t chunk[4096];
  while (true) {
    // Apply every complete control frame before touching the rings.
    // Doorbell bytes (ring wakeups) sit between frames; the wakeup already
    // happened, so they just strip.
    Frame frame;
    ParseStatus status;
    while (true) {
      (void)strip_doorbells(buffer);
      if ((status = Codec::try_parse(buffer, frame)) != ParseStatus::kFrame) {
        break;
      }
      switch (frame.type) {
        case MessageType::kBind:
          // The previous deployment's telemetry ships before the new one
          // applies, so the host attributes every event to the deployment
          // that produced it (a fresh worker has nothing to flush).
          if (!flush_telemetry(fd) || !apply_bind(frame, binding)) return 1;
          ++applied_epoch;
          break;
        case MessageType::kSegments: {
          auto msg = Codec::decode_segments(frame.payload);
          if (!msg) return 1;
          binding.set_segments(std::move(msg->plans));
          ++applied_epoch;
          break;
        }
        case MessageType::kShutdown:
          return flush_telemetry(fd) ? 0 : 1;
        default:
          return 1;  // kHello/kTelemetry never flow host -> worker
      }
    }
    if (status == ParseStatus::kMalformed ||
        status == ParseStatus::kWrongVersion) {
      return 1;
    }

    // Serve everything committed (and not epoch-gated), then peek the
    // socket once so a control frame pipelined behind ring traffic cannot
    // starve.
    const RingServe burst = serve_ring(rings, binding, applied_epoch, fd);
    if (burst.violation) return 1;
    if (burst.host_gone) return 0;
    if (burst.served > 0) {
      backoff.reset();
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer.insert(buffer.end(), chunk, chunk + n);
      } else if (n == 0) {
        return 0;  // host closed: treat like a shutdown
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return 1;
      }
      continue;
    }

    // Idle: spin-then-sleep. Spin a bounded budget re-checking the ring
    // (the outer loop re-runs serve_ring each round); once dry, decide from
    // one read of the head. An empty ring publishes the waiting flag and
    // parks on the socket — the host doorbells the transition, and the
    // publish/recheck handshake is seq_cst against its tail publish, so
    // the park cannot miss a wakeup. A gated head blocks without the flag:
    // the control frame it waits for is already in flight on the socket.
    if (backoff.spin()) continue;
    backoff.reset();
    switch (head_action(rings.peek_request(), applied_epoch)) {
      case HeadAction::kServe:
        continue;  // committed since the burst: serve it
      case HeadAction::kPark:
        rings.publish_request_waiting();
        if (rings.request_published()) {
          rings.clear_request_waiting();
          continue;
        }
        break;
      case HeadAction::kAwaitControl:
        break;
    }

    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    rings.clear_request_waiting();
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    if (n == 0) return 0;  // host closed: treat like a shutdown
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

#endif  // WNF_TRANSPORT_POSIX

}  // namespace wnf::transport
