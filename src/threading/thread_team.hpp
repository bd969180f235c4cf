// ThreadTeam: a fixed-width group of threads executing data-parallel loops.
// This is the real-host analogue of an MKL-DNN OpenMP team: one team runs
// one operation at a chosen intra-op parallelism.
//
// The calling thread leads. It runs chunk 0 itself, so a width-w team owns
// w-1 helper threads, and a width-1 team owns none: its loops run inline on
// the caller.
//
// Handoff: the leader publishes a loop by bumping one 32-bit atomic epoch
// (a WaitWord, threading/spin.hpp), and helpers count themselves done on one
// 32-bit atomic counter. A waiting thread spins for a bounded window,
// yielding its core between polls, then parks in a futex wait, so a
// launch costs one futex wake at most and none while the team is busy. Idle
// helpers spin only for a hot team: one whose loop started within a spin
// window of its previous loop's end, that is no wider than the host, and
// only while no other team has started a loop since. Anything else parks
// at once, so idle or oversubscribed teams never burn cores that other
// teams need.
//
// Lifetime: helpers are joined in the destructor (no detach). Creating a
// team is deliberately the expensive part: thread spawn and bind cost is
// exactly the overhead the paper's Strategy 2 avoids, and
// bench/micro_threadpool measures it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "threading/core_set.hpp"
#include "threading/spin.hpp"

namespace opsched {

/// Loop body for parallel_for: receives [begin, end) and the worker index
/// (0 is the calling thread, 1..width-1 the helpers).
using RangeFn = std::function<void(std::size_t begin, std::size_t end,
                                   std::size_t worker)>;

class ThreadTeam {
 public:
  /// Spawns `width` - 1 helpers. If `affinity` holds at least `width`
  /// cores, helper i is pinned (best effort) to the i-th core in ascending
  /// order; core 0 of the set is the leader's, and a caller that wants the
  /// whole team pinned runs on it. Neighbouring workers get neighbouring
  /// cores, which mirrors the paper's "threads with continuous IDs share a
  /// tile" policy.
  explicit ThreadTeam(std::size_t width, const CoreSet& affinity = CoreSet());

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Joins the helpers, whether they are parked or spinning. Must not
  /// overlap a parallel_for.
  ~ThreadTeam();

  std::size_t width() const noexcept { return width_; }

  /// Runs `fn` over [0, n) split into static contiguous chunks, one per
  /// worker, assigned in worker order (the caller gets the first chunk,
  /// helper i the (i+1)-th: neighbour iterations land on neighbour
  /// workers). Blocks until every chunk finished. Exceptions thrown by `fn`
  /// on any worker are rethrown here (first one wins), and the team stays
  /// usable. Must not be called concurrently from two threads.
  void parallel_for(std::size_t n, const RangeFn& fn);

  /// Same but with an explicit grain: chunks are multiples of `grain` where
  /// possible (useful for cache-line-aligned writes).
  void parallel_for_grain(std::size_t n, std::size_t grain, const RangeFn& fn);

 private:
  /// One loop as the helpers see it. fn == nullptr tells them to exit.
  struct Task {
    std::size_t n = 0;
    std::size_t grain = 1;
    const RangeFn* fn = nullptr;
    /// Whether the team is hot: threads may spin after this loop.
    bool spin = false;
    /// The process-wide loop count this loop started at; a spinner parks
    /// as soon as another loop starts anywhere.
    std::uint32_t start = 0;
  };

  void helper_loop(std::size_t index);
  /// Runs worker `index`'s chunk of `task`, recording any exception.
  void run_chunk(const Task& task, std::size_t index) noexcept;
  /// Leader side: blocks until every helper finished the current loop.
  void await_helpers();

  const std::size_t width_;
  /// Width fits the host: the only teams allowed to spin.
  const bool may_spin_;
  /// Written by the leader before each epoch bump; read by helpers after.
  Task task_;
  /// Leader-only: when the previous loop ended (steady clock, ns).
  std::int64_t last_end_ns_;

  alignas(64) WaitWord epoch_;
  /// Helpers done with the current loop, plus kLeaderParked while the
  /// leader sleeps on it.
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // written once per loop, by the first thrower

  std::vector<std::thread> helpers_;
};

/// Returns the largest sensible team width on the host (logical cores).
std::size_t host_logical_cores() noexcept;

/// Pins the calling thread to `core` (best effort: containers and
/// cpuset-restricted environments may refuse, which leaves it unpinned).
void pin_this_thread(std::size_t core) noexcept;

}  // namespace opsched
