#include "transport/ring.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WNF_RING_POSIX 1
#include <sys/mman.h>
#else
#define WNF_RING_POSIX 0
#endif

#include <new>

#include "util/contract.hpp"

namespace wnf::transport {

#if WNF_RING_POSIX

std::shared_ptr<WorkerRings> WorkerRings::create(std::size_t capacity,
                                                 std::size_t slot_doubles) {
  WNF_EXPECTS(capacity > 0);
  // Header plus payload, rounded up to whole cache lines.
  const std::size_t stride =
      (sizeof(RequestSlot) + slot_doubles * sizeof(double) + 63) / 64 * 64;
  const std::size_t bytes = 2 * sizeof(RingControl) + capacity * stride +
                            capacity * sizeof(ResultSlot);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  WNF_ASSERT(mem != MAP_FAILED && "mapping the shared-memory rings failed");

  auto rings = std::shared_ptr<WorkerRings>(new WorkerRings());
  rings->capacity_ = capacity;
  rings->slot_doubles_ = slot_doubles;
  rings->req_stride_ = stride;
  rings->mem_ = mem;
  rings->bytes_ = bytes;
  auto* base = static_cast<std::uint8_t*>(mem);
  rings->req_ctl_ = new (base) RingControl();
  rings->res_ctl_ = new (base + sizeof(RingControl)) RingControl();
  base += 2 * sizeof(RingControl);
  rings->req_slots_ = base;
  rings->res_slots_ = reinterpret_cast<ResultSlot*>(base + capacity * stride);
  for (std::size_t i = 0; i < capacity; ++i) {
    new (base + i * stride) RequestSlot();
    new (rings->res_slots_ + i) ResultSlot();
  }
  return rings;
}

WorkerRings::~WorkerRings() {
  if (mem_ != nullptr) ::munmap(mem_, bytes_);
}

void WorkerRings::reset() {
  for (RingControl* ctl : {req_ctl_, res_ctl_}) {
    ctl->tail.store(0, std::memory_order_relaxed);
    ctl->head.store(0, std::memory_order_relaxed);
    ctl->consumer_waiting.store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    request_slot(i).begin_seq.store(0, std::memory_order_relaxed);
    request_slot(i).commit_seq.store(0, std::memory_order_relaxed);
    res_slots_[i].begin_seq.store(0, std::memory_order_relaxed);
    res_slots_[i].commit_seq.store(0, std::memory_order_relaxed);
  }
  req_push_ = req_pop_ = res_push_ = res_pop_ = 0;
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

#else  // !WNF_RING_POSIX

std::shared_ptr<WorkerRings> WorkerRings::create(std::size_t, std::size_t) {
  WNF_EXPECTS(false && "shared-memory rings need POSIX mmap");
  return nullptr;
}

WorkerRings::~WorkerRings() = default;

void WorkerRings::reset() {}

#endif  // WNF_RING_POSIX

}  // namespace wnf::transport
