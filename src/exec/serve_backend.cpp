#include "exec/serve_backend.hpp"

namespace wnf::exec {

ServeBackend::ServeBackend(const nn::FeedForwardNetwork& net,
                           ServeBackendOptions options)
    : ServedBackend(net), options_(std::move(options)) {}

std::unique_ptr<serve::ReplicaPool> ServeBackend::make_server(
    std::size_t queue_capacity) const {
  serve::ServeConfig config;
  config.replicas = options_.replicas;
  config.queue_capacity = queue_capacity;
  config.sim = options_.sim;
  config.latency = options_.latency;
  config.straggler_cut = options_.straggler_cut;
  config.seed = options_.seed;
  return std::make_unique<serve::ReplicaPool>(network(), std::move(config));
}

std::vector<TrialResult> ServeBackend::run_trials(
    std::span<const Trial> trials) {
  // A fresh pool per call, torn down with it.
  std::unique_ptr<serve::ReplicaPool> pool;
  return serve_trials(trials,
                      [&](std::size_t capacity) -> serve::ReplicaPool& {
                        pool = make_server(capacity);
                        return *pool;
                      });
}

}  // namespace wnf::exec
