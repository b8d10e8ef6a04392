#ifndef JOCL_UTIL_ALIGNED_H_
#define JOCL_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace jocl {

/// \brief Cache-line alignment of the LBP arena base pointers (bytes).
inline constexpr size_t kArenaAlignment = 64;

/// \brief Alignment of an individual message lane within an arena (bytes).
///
/// 32 bytes = one AVX2 vector = four doubles. Per-edge and per-variable
/// lanes are padded to a multiple of this (FactorGraph lane offsets), so
/// every lane starts on a vector boundary the auto-vectorizer can use
/// without peeling. The quantum is deliberately smaller than a cache line:
/// most JOCL edges are binary, and padding each to 64 bytes would
/// quadruple arena traffic for no vector win.
inline constexpr size_t kLaneAlignment = 32;

/// \brief Doubles per arena lane quantum (kLaneAlignment / sizeof(double)).
inline constexpr size_t kLaneDoubles = kLaneAlignment / sizeof(double);

/// \brief Rounds \p n up to a multiple of \p quantum (quantum > 0).
inline constexpr size_t RoundUpTo(size_t n, size_t quantum) {
  return (n + quantum - 1) / quantum * quantum;
}

/// \brief Minimal std::allocator drop-in with guaranteed over-alignment.
///
/// std::vector<double> only guarantees alignof(double); the vectorized
/// LBP kernels want cache-line-aligned arena bases. C++17 aligned
/// operator new handles the allocation; the allocator is stateless, so
/// all instances compare equal.
template <typename T, size_t Alignment = kArenaAlignment>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Alignment >= alignof(T), "alignment under-aligns T");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, size_t n) {
    (void)n;
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// \brief A std::vector whose storage starts on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// \brief Tells the compiler \p p is kLaneAlignment-aligned (no-op at
/// runtime; unlocks unpeeled vector loads in the kernels).
inline double* AssumeLaneAligned(double* p) {
  return static_cast<double*>(__builtin_assume_aligned(p, kLaneAlignment));
}
inline const double* AssumeLaneAligned(const double* p) {
  return static_cast<const double*>(
      __builtin_assume_aligned(p, kLaneAlignment));
}

}  // namespace jocl

#endif  // JOCL_UTIL_ALIGNED_H_
