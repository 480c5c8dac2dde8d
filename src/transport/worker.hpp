// The worker side of the multi-process deployment: one forked process per
// worker, each hosting its own dist::NetworkSimulator replica, taking
// control frames (transport::Codec) over a Unix-domain socketpair and
// probes through the shared-memory rings. The worker is intentionally
// dumb — it holds no scheduling, timeline, or RNG policy. Everything that
// determines a result (the network, the segment plans, the request's
// split-off RNG state) arrives from the host, which is what makes a
// worker's answer a pure function of its inputs and the whole deployment
// bit-identical to the in-process ReplicaPool.
#pragma once

#include <cstdint>

namespace wnf::transport {

/// True when this platform can run the multi-process runtime (POSIX fork +
/// socketpair). When false, WorkerHost construction aborts and callers
/// (tests, benches, examples) should skip gracefully.
bool transport_available();

class WorkerRings;

/// Runs the worker protocol loop on `fd` (the worker end of the pair)
/// until a shutdown frame, EOF (host closed or died), or a protocol
/// violation. Sends a Hello first, then applies kBind/kSegments control
/// frames from the socket and serves probes from `rings` (the host's
/// pre-fork shared mapping for this worker): each request slot is
/// evaluated in place and answered through the result ring, while the
/// socket carries only control frames and doorbell bytes. A worker
/// outlives any single campaign: a later kBind + kSegments pair swaps its
/// whole replica state in place, exactly as the first pair built it, which
/// is what lets the host reuse one forked fleet across many run_trials
/// cycles. Each kBind first flushes the previous deployment's telemetry.
/// Ring probes whose epoch is ahead of the control frames applied so far
/// are deferred until the in-flight bind/segments lands, so the ring can
/// never overtake the control channel. Returns the process exit code: 0
/// for a clean shutdown or host EOF, 1 for malformed input or an I/O
/// error. Never returns on unsupported platforms (aborts).
int worker_main(int fd, std::uint32_t worker_index, WorkerRings& rings);

}  // namespace wnf::transport
