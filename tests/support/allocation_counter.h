#ifndef JOCL_TESTS_SUPPORT_ALLOCATION_COUNTER_H_
#define JOCL_TESTS_SUPPORT_ALLOCATION_COUNTER_H_

// A heap-allocation probe: replaces the global operator new so a test can
// count the allocations made on the calling thread only (other threads,
// such as a server's, never add noise). Replacement functions must be
// defined once per program, so include this header in exactly one
// translation unit of a test binary.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace jocl {

/// Heap allocations made so far by the current thread.
inline thread_local uint64_t g_thread_allocations = 0;

}  // namespace jocl

void* operator new(std::size_t size) {
  ++jocl::g_thread_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow form (std::stable_sort's temporary buffer) is replaced too:
// its blocks come back through the sized delete below, so under a
// sanitizer's own operator new they would be freed by the wrong allocator.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++jocl::g_thread_allocations;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // JOCL_TESTS_SUPPORT_ALLOCATION_COUNTER_H_
