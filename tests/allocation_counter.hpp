/**
 * @file
 * A counting replacement for the global operator new, for tests that
 * check a code path allocates nothing. It defines the replacement
 * functions, so include it in exactly one source file of a test
 * binary.
 */

#ifndef RAP_TESTS_ALLOCATION_COUNTER_HPP
#define RAP_TESTS_ALLOCATION_COUNTER_HPP

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace rap::test {

/** Every allocation this binary makes through operator new. */
inline std::atomic<std::uint64_t> gAllocations{0};

} // namespace rap::test

void *
operator new(std::size_t size)
{
    rap::test::gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// GCC flags free() on what it knows came from operator new; here the
// replacement operator new above allocated it with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // RAP_TESTS_ALLOCATION_COUNTER_HPP
