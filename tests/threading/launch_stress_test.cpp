// Oversubscription stress for TeamPool + caller-led ThreadTeams: far more
// concurrent launches than the host has cores. Guards two past failure
// modes:
//  - the deadlock where concurrent co-run slots on a narrow host shared one
//    (width, affinity) ThreadTeam — slot tags must keep live teams
//    distinct;
//  - launch starvation/deadlock when every launching thread leads a team
//    while more launches wait for cores.
// The assertions are completion (no deadlock — bounded by the CTest
// timeout), exact work accounting, and team distinctness; nothing timing-
// sensitive, so the test is safe on 1-core CI and under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "threading/core_set.hpp"
#include "threading/team_pool.hpp"
#include "threading/thread_team.hpp"

namespace opsched {
namespace {

TEST(LaunchStressTest, OversubscribedWidth1LaunchesRunOnTheirCallers) {
  // Many more launching threads than cores, each leading its own slot's
  // width-1 team — the host executor's width-1 path under maximum
  // oversubscription. A width-1 team has no helpers: every body must run
  // on the thread that launched it.
  const std::size_t cores = host_logical_cores();
  const std::size_t launchers = 4 * cores + 12;
  constexpr int kJobs = 8;
  constexpr std::size_t kIters = 512;

  TeamPool pool(1);
  std::atomic<std::uint64_t> work{0};
  std::atomic<int> foreign{0};
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < launchers; ++l) {
    threads.emplace_back([&, l] {
      ThreadTeam& team = pool.team_pinned(1, CoreSet(), l);
      const std::thread::id self = std::this_thread::get_id();
      for (int j = 0; j < kJobs; ++j) {
        team.parallel_for(kIters, [&](std::size_t b, std::size_t e,
                                      std::size_t) {
          if (std::this_thread::get_id() != self) foreign.fetch_add(1);
          work.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(work.load(),
            static_cast<std::uint64_t>(launchers) * kJobs * kIters);
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(pool.teams_created(), launchers);
}

TEST(LaunchStressTest, SlotTagsKeepLiveTeamsDistinct) {
  // Identical (width, affinity) requested under distinct slot tags must
  // yield distinct teams; the same slot must reuse its team.
  TeamPool pool(2);
  const CoreSet span = CoreSet::range(2, 0, 1);
  std::vector<ThreadTeam*> teams;
  for (std::size_t slot = 0; slot < 8; ++slot)
    teams.push_back(&pool.team_pinned(1, span, slot));
  for (std::size_t i = 0; i < teams.size(); ++i) {
    EXPECT_EQ(teams[i], &pool.team_pinned(1, span, i)) << "slot " << i;
    for (std::size_t j = i + 1; j < teams.size(); ++j)
      EXPECT_NE(teams[i], teams[j]) << "slots " << i << "," << j;
  }
  EXPECT_GE(pool.teams_created(), 8u);
}

TEST(LaunchStressTest, ConcurrentSlotTaggedCorunSlotsNeverDeadlock) {
  // The shared-team deadlock shape, oversubscribed: 8 concurrent "co-run
  // slots" on a 2-core pool, each leading a parallel_for on its slot-tagged
  // pinned team while every other slot does the same. With a shared team
  // this deadlocks (a team must never run two parallel_for calls at once);
  // with slot tags it must finish and count exactly.
  constexpr std::size_t kSlots = 8;
  constexpr int kRounds = 20;
  constexpr std::size_t kIters = 256;

  TeamPool pool(2);
  const CoreSet span = CoreSet::range(2, 0, 2);
  std::atomic<std::uint64_t> work{0};
  std::vector<std::thread> slots;
  for (std::size_t s = 0; s < kSlots; ++s) {
    slots.emplace_back([&, s] {
      ThreadTeam& team = pool.team_pinned(2, span, s);
      for (int r = 0; r < kRounds; ++r) {
        team.parallel_for(kIters, [&](std::size_t b, std::size_t e,
                                      std::size_t) {
          work.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : slots) t.join();
  EXPECT_EQ(work.load(),
            static_cast<std::uint64_t>(kRounds) * kSlots * kIters);
  // One live team per slot, never more (teams are cached and reused across
  // rounds): the pool must hold exactly kSlots (2, span)-teams.
  EXPECT_EQ(pool.teams_created(), kSlots);
}

}  // namespace
}  // namespace opsched
