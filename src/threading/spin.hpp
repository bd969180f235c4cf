// Bounded spinning and the parkable 32-bit word built on it: the handoff
// of ThreadTeam (leader to helpers), of the host executor's lanes
// (dispatcher to lane) and of its completion board (lanes to dispatcher).
//
// A thread that expects its wake soon polls first and parks (a futex wait)
// only when the window runs out, so a back-to-back handoff costs a
// cache-line transfer rather than a futex round trip.
// Between polls the spinner yields its core: any other runnable thread on
// that core goes first, so a spinner never delays the work it waits for.
// Pausing instead (no yield) made host steps up to 3x slower on a 4-core
// host, because spinners held cores that pinned team helpers and the
// unpinned dispatcher needed.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace opsched {

/// How long a waiter polls before it parks.
inline constexpr std::int64_t kSpinWindowNs = 50'000;
/// A yield that returns later than this gave the core to another thread.
inline constexpr std::int64_t kSpinStallNs = 20'000;
/// How long a thread that lost its core stops polling: doubled per loss,
/// halved per wait that polling served, within these bounds.
inline constexpr std::int64_t kMinQuietNs = 1'000'000;
inline constexpr std::int64_t kMaxQuietNs = 1'000'000'000;

namespace spin_detail {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread memory of lost cores.
struct Quiet {
  std::int64_t until_ns = 0;
  std::int64_t period_ns = 0;
};
inline thread_local Quiet quiet;

}  // namespace spin_detail

/// Sleeps while `word` holds `seen`; may return spuriously. On Linux this
/// is a bare futex wait: libstdc++'s std::atomic::wait yields the core
/// four times before it sleeps, and on a core shared with a busy process
/// each of those yields hands over a whole scheduler slice.
void park_while(std::atomic<std::uint32_t>& word, std::uint32_t seen) noexcept;

/// Wakes every thread parked on `word`.
void wake_all(std::atomic<std::uint32_t>& word) noexcept;

/// Polls `ready()` for up to kSpinWindowNs, yielding the core between polls,
/// and returns whether it became true. A spinner that shares its core with
/// a busy thread would lose its core for a whole scheduler slice on a
/// yield, and a thread that stays runnable loses the wake-up preemption a
/// parked one gets. So once a yield comes back late, this thread stops
/// polling for a while and parks straight away instead.
template <typename Ready>
bool spin_until(Ready&& ready) {
  spin_detail::Quiet& q = spin_detail::quiet;
  std::int64_t now = spin_detail::now_ns();
  if (now < q.until_ns) return ready();
  const std::int64_t deadline = now + kSpinWindowNs;
  for (;;) {
    if (ready()) {
      q.period_ns /= 2;
      return true;
    }
    const std::int64_t before = now;
    std::this_thread::yield();
    now = spin_detail::now_ns();
    if (now - before > kSpinStallNs) {
      q.period_ns = std::clamp(2 * q.period_ns, kMinQuietNs, kMaxQuietNs);
      q.until_ns = now + q.period_ns;
      return ready();
    }
    if (now >= deadline) return ready();
  }
}

/// A counter that threads wait on for a change. bump() pays for a futex
/// wake only when a waiter is parked: waiters announce themselves in
/// parked_ before their last check, and both sides use seq_cst, so either
/// the waiter sees the bump or the bumper sees the waiter. 32 bits is the
/// futex width; the value wraps, so compare it for equality only.
class WaitWord {
 public:
  std::uint32_t load() const noexcept {
    return word_.load(std::memory_order_acquire);
  }

  /// Adds one and wakes every parked waiter. Writes made before bump() are
  /// visible to a waiter that sees the new value.
  void bump() noexcept {
    word_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) wake_all(word_);
  }

  /// Blocks until the value differs from `seen` and returns it. Polls for
  /// a spin window first when `spin`; polling also ends, and the waiter
  /// parks, as soon as `give_up()` holds.
  template <typename GiveUp>
  std::uint32_t await_change(std::uint32_t seen, bool spin, GiveUp&& give_up) {
    std::uint32_t v = seen;
    if (spin && spin_until([&] {
          v = load();
          return v != seen || give_up();
        }) &&
        v != seen)
      return v;
    parked_.fetch_add(1, std::memory_order_seq_cst);
    while ((v = word_.load(std::memory_order_seq_cst)) == seen)
      park_while(word_, seen);
    parked_.fetch_sub(1, std::memory_order_release);
    return v;
  }

  std::uint32_t await_change(std::uint32_t seen) {
    return await_change(seen, true, [] { return false; });
  }

 private:
  std::atomic<std::uint32_t> word_{0};
  std::atomic<std::uint32_t> parked_{0};
};

}  // namespace opsched
