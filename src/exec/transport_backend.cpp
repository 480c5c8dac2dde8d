#include "exec/transport_backend.hpp"

namespace wnf::exec {

bool TransportBackend::available() {
  return transport::WorkerHost::available();
}

TransportBackend::TransportBackend(const nn::FeedForwardNetwork& net,
                                   TransportBackendOptions options)
    : ServedBackend(net), options_(std::move(options)) {
  WNF_EXPECTS(available());
}

std::unique_ptr<transport::WorkerHost> TransportBackend::make_server(
    std::size_t queue_capacity) const {
  transport::TransportConfig config;
  config.workers = options_.workers;
  config.queue_capacity = queue_capacity;
  config.ring_capacity = options_.ring_capacity;
  config.sim = options_.sim;
  config.latency = options_.latency;
  config.straggler_cut = options_.straggler_cut;
  config.seed = options_.seed;
  return std::make_unique<transport::WorkerHost>(network(), std::move(config));
}

std::vector<TrialResult> TransportBackend::run_trials(
    std::span<const Trial> trials) {
  auto results = serve_trials(
      trials, [this](std::size_t capacity) -> transport::WorkerHost& {
        if (!fleet_) {
          fleet_ = make_server(capacity);
        } else {
          // Same fleet, fresh logical deployment: ids restart at 0 on the
          // same seed, the queue grows to hold this call's whole trial
          // stream, and no timeline or crash script carries over —
          // bit-identical to a fresh host, with zero new forks.
          transport::RebindOptions rebind;
          rebind.queue_capacity = capacity;
          fleet_->rebind(network(), std::move(rebind));
        }
        // Deaths fire at the same dispatch frontiers whether the stream is
        // pipelined or drained synchronously.
        fleet_->set_crash_script(options_.crash_script);
        return *fleet_;
      });
  last_report_ = fleet_->report();
  return results;
}

}  // namespace wnf::exec
