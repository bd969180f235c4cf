// Heap-allocation counter for allocation-budget tests and benches. Linking
// alloc_counter.cpp into a binary replaces the global operator new with one
// that counts every call on the calling thread, then defers to malloc. A
// caller reads the count before and after the code under test; other
// threads' allocations never leak into the difference.
#pragma once

#include <cstdint>

namespace opsched::testing {

/// Calls to the global operator new made by this thread so far (plain,
/// array and nothrow forms; over-aligned allocations are not counted).
std::uint64_t thread_allocations() noexcept;

}  // namespace opsched::testing
