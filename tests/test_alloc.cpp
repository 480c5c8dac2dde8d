// Heap-allocation pins for the serving hot path. This binary replaces the
// global operator new to count every allocation the process makes, so it
// stays apart from the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "dist/boosting.hpp"
#include "nn/builder.hpp"
#include "serve/replica.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// The nothrow form is replaced too: temporary buffers (stable_sort's, for
// one) come from it.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace wnf {
namespace {

TEST(Alloc, SteadyStateReplicaStepUnderACutAllocatesNothing) {
  // A boosted step (Corollary-2 cut on every receiver set, the output
  // client's included) in one segment, after the warm-up steps that install
  // the plan and shape the hold-last rows, makes no heap allocation.
  Rng rng(3);
  nn::NetworkBuilder builder(8);
  builder.activation(nn::ActivationKind::kSigmoid, 1.0);
  builder.hidden(16).hidden(16);
  const auto net = builder.build(rng);
  const std::vector<std::size_t> waits =
      dist::wait_counts_from_cut(net, {2, 3});
  const dist::LatencyModel latency{dist::LatencyKind::kHeavyTail, 1.0, 50.0,
                                   0.2};
  serve::Replica replica(net, dist::SimConfig{}, latency, waits);
  fault::FaultPlan plan;
  plan.neurons = {{1, 0, fault::NeuronFaultKind::kCrash, 0.0}};
  const std::vector<double> x(net.input_dim(), 0.5);

  Rng root(7);
  for (int i = 0; i < 4; ++i) replica.step(0, plan, x, root.split());

  double checksum = 0.0;
  std::size_t resets = 0;
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 256; ++i) {
    const dist::SimResult result = replica.step(0, plan, x, root.split());
    checksum += result.output;
    resets += result.resets_sent;
  }
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(std::isfinite(checksum));
  EXPECT_GT(resets, 0u);  // the cut binds on every step
}

}  // namespace
}  // namespace wnf
