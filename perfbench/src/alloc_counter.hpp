// Heap-allocation counter for the benchmark binary. alloc_counter.cpp
// replaces the global operator new/delete; every allocation bumps a counter
// owned by the allocating thread (one cache line each, single writer, so the
// sharded workload's threads never contend on it).
#pragma once

#include <cstdint>

namespace swish::bench {

/// Allocations made so far by all threads.
std::uint64_t total_allocs() noexcept;

/// Allocations made so far by the calling thread (per-span attribution).
std::uint64_t thread_allocs() noexcept;

}  // namespace swish::bench
