#include "threading/thread_team.hpp"

#include <algorithm>
#include <stdexcept>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace opsched {

namespace {

/// Set in ThreadTeam::done_ while the leader sleeps on it.
constexpr std::uint32_t kLeaderParked = 1u << 31;

/// Loops started by any team in the process. A spinner whose team is not
/// the last to start one parks: its cores are likely wanted elsewhere.
std::atomic<std::uint32_t> g_loop_starts{0};

}  // namespace

std::size_t host_logical_cores() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void pin_this_thread(std::size_t core) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % CPU_SETSIZE, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

ThreadTeam::ThreadTeam(std::size_t width, const CoreSet& affinity)
    : width_(width),
      may_spin_(width <= host_logical_cores()),
      last_end_ns_(-kSpinWindowNs) {
  if (width_ == 0) throw std::invalid_argument("ThreadTeam: width must be >0");
  std::vector<std::size_t> pins;
  if (affinity.count() >= width_) pins = affinity.to_vector();
  helpers_.reserve(width_ - 1);
  for (std::size_t i = 1; i < width_; ++i) {
    const bool pin = !pins.empty();
    const std::size_t core = pin ? pins[i] : 0;
    helpers_.emplace_back([this, i, pin, core] {
      if (pin) pin_this_thread(core);
      helper_loop(i);
    });
  }
}

ThreadTeam::~ThreadTeam() {
  if (helpers_.empty()) return;
  task_ = Task{};  // fn == nullptr: exit
  epoch_.bump();
  for (auto& t : helpers_) t.join();
}

void ThreadTeam::run_chunk(const Task& task, std::size_t index) noexcept {
  // Static contiguous chunking in worker order: worker i takes the i-th
  // chunk so that neighbouring iterations run on neighbouring workers.
  const std::size_t grain = std::max<std::size_t>(1, task.grain);
  const std::size_t chunks = (task.n + grain - 1) / grain;
  const std::size_t per = (chunks + width_ - 1) / width_;
  const std::size_t begin = std::min(task.n, index * per * grain);
  const std::size_t end = std::min(task.n, (index + 1) * per * grain);
  if (begin >= end) return;
  try {
    (*task.fn)(begin, end, index);
  } catch (...) {
    if (!failed_.exchange(true, std::memory_order_acq_rel))
      error_ = std::current_exception();
  }
}

void ThreadTeam::helper_loop(std::size_t index) {
  const auto last_helper = static_cast<std::uint32_t>(width_ - 2);
  Task last;  // spin == false: the first wait parks at once
  std::uint32_t seen = 0;
  for (;;) {
    // A hot team's helpers poll for the next loop, until another team
    // starts one; everything else parks at once.
    seen = epoch_.await_change(seen, last.spin, [&] {
      return g_loop_starts.load(std::memory_order_relaxed) != last.start;
    });
    last = task_;
    if (last.fn == nullptr) return;
    run_chunk(last, index);
    // The last helper wakes the leader only if it went to sleep.
    if (done_.fetch_add(1, std::memory_order_seq_cst) ==
        (kLeaderParked | last_helper))
      wake_all(done_);
  }
}

void ThreadTeam::await_helpers() {
  const auto helpers = static_cast<std::uint32_t>(width_ - 1);
  const auto all_done = [&] {
    return done_.load(std::memory_order_acquire) == helpers;
  };
  if (may_spin_ ? spin_until(all_done) : all_done()) return;
  std::uint32_t d =
      done_.fetch_or(kLeaderParked, std::memory_order_seq_cst) | kLeaderParked;
  while (d != (kLeaderParked | helpers)) {
    park_while(done_, d);
    d = done_.load(std::memory_order_acquire);
  }
}

void ThreadTeam::parallel_for(std::size_t n, const RangeFn& fn) {
  parallel_for_grain(n, 1, fn);
}

void ThreadTeam::parallel_for_grain(std::size_t n, std::size_t grain,
                                    const RangeFn& fn) {
  if (n == 0) return;
  const std::uint32_t start =
      g_loop_starts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (helpers_.empty()) {
    // Worker 0's chunk is the whole range: run it here, exceptions and all.
    fn(0, n, 0);
    return;
  }
  const bool hot =
      may_spin_ && spin_detail::now_ns() - last_end_ns_ < kSpinWindowNs;
  task_ = Task{n, grain, &fn, hot, start};
  done_.store(0, std::memory_order_relaxed);
  epoch_.bump();
  run_chunk(task_, 0);
  await_helpers();
  last_end_ns_ = spin_detail::now_ns();
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr err = std::move(error_);
    error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(err);
  }
}

}  // namespace opsched
