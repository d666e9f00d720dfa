#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace swish::bench {
namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<bool> in_use{false};
};

Slot g_slots[kSlots];
/// Shared by threads beyond kSlots live at once (never reached by the
/// benchmark, whose threads are the main thread plus at most nproc - 1 shard
/// workers at a time).
Slot g_overflow;

/// The calling thread's slot. Trivially destructible, so it stays readable
/// while the thread's other thread_local objects are destroyed.
thread_local Slot* t_slot = nullptr;

/// A thread's claim on a slot, released when the thread exits so that the
/// shard workers each repetition starts and joins reuse slots. Counts stay in
/// the slot, so total_allocs() never goes backwards.
struct SlotClaim {
  Slot* slot = nullptr;

  SlotClaim() {
    for (Slot& s : g_slots) {
      bool expected = false;
      if (s.in_use.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
        slot = &s;
        return;
      }
    }
    slot = &g_overflow;
  }
  ~SlotClaim() {
    if (slot != &g_overflow) slot->in_use.store(false, std::memory_order_release);
    t_slot = &g_overflow;  // allocations during the rest of thread teardown
  }
  SlotClaim(const SlotClaim&) = delete;
  SlotClaim& operator=(const SlotClaim&) = delete;
};

Slot& my_slot() noexcept {
  if (t_slot == nullptr) {
    thread_local SlotClaim claim;
    t_slot = claim.slot;
  }
  return *t_slot;
}

void count_one() noexcept {
  Slot& s = my_slot();
  if (&s == &g_overflow) {
    s.allocs.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Single writer: a relaxed load + store is enough and avoids a locked op.
    s.allocs.store(s.allocs.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t total_allocs() noexcept {
  std::uint64_t sum = g_overflow.allocs.load(std::memory_order_relaxed);
  for (const Slot& s : g_slots) sum += s.allocs.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t thread_allocs() noexcept {
  return my_slot().allocs.load(std::memory_order_relaxed);
}

}  // namespace swish::bench

using swish::bench::allocate;
using swish::bench::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
