#include "threading/spin.hpp"

#include <climits>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace opsched {

#if defined(__linux__)
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "a futex word must be a plain 32-bit integer");

void park_while(std::atomic<std::uint32_t>& word, std::uint32_t seen) noexcept {
  (void)syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
                FUTEX_WAIT_PRIVATE, seen, nullptr, nullptr, 0);
}

void wake_all(std::atomic<std::uint32_t>& word) noexcept {
  (void)syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
                FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
}
#else
void park_while(std::atomic<std::uint32_t>& word, std::uint32_t seen) noexcept {
  word.wait(seen, std::memory_order_acquire);
}

void wake_all(std::atomic<std::uint32_t>& word) noexcept { word.notify_all(); }
#endif

}  // namespace opsched
