#include "threading/thread_team.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "threading/team_pool.hpp"

namespace opsched {
namespace {

TEST(ThreadTeam, RejectsZeroWidth) {
  EXPECT_THROW(ThreadTeam team(0), std::invalid_argument);
}

TEST(ThreadTeam, ParallelForCoversRangeExactlyOnce) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(1000);
  team.parallel_for(hits.size(), [&](std::size_t b, std::size_t e,
                                     std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, EmptyRangeIsNoop) {
  ThreadTeam team(4);
  bool called = false;
  team.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadTeam, ChunksAreContiguousAndOrdered) {
  // Worker i must get the i-th contiguous chunk (neighbour iterations on
  // neighbour workers — the paper's tile-sharing affinity rationale).
  ThreadTeam team(4);
  std::vector<int> owner(64, -1);
  team.parallel_for(owner.size(), [&](std::size_t b, std::size_t e,
                                      std::size_t w) {
    for (std::size_t i = b; i < e; ++i) owner[i] = static_cast<int>(w);
  });
  for (std::size_t i = 1; i < owner.size(); ++i) {
    EXPECT_GE(owner[i], owner[i - 1]) << "chunks out of worker order";
  }
  EXPECT_EQ(owner.front(), 0);
}

TEST(ThreadTeam, ReusableAcrossManyDispatches) {
  ThreadTeam team(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    team.parallel_for(100, [&](std::size_t b, std::size_t e, std::size_t) {
      total.fetch_add(static_cast<long>(e - b));
    });
  }
  EXPECT_EQ(total.load(), 200 * 100);
}

TEST(ThreadTeam, SumMatchesSerial) {
  ThreadTeam team(8);
  std::vector<double> data(10000);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> partial(8, 0.0);
  team.parallel_for(data.size(), [&](std::size_t b, std::size_t e,
                                     std::size_t w) {
    for (std::size_t i = b; i < e; ++i) partial[w] += data[i];
  });
  double total = 0.0;
  for (double p : partial) total += p;
  EXPECT_DOUBLE_EQ(total, 10000.0 * 9999.0 / 2.0);
}

TEST(ThreadTeam, GrainRespected) {
  ThreadTeam team(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4, {0, 0});
  team.parallel_for_grain(100, 16, [&](std::size_t b, std::size_t e,
                                       std::size_t w) {
    ranges[w] = {b, e};
  });
  for (const auto& [b, e] : ranges) {
    if (b == e) continue;
    // Chunk starts must be multiples of the grain.
    EXPECT_EQ(b % 16, 0u);
  }
}

TEST(ThreadTeam, ExceptionsPropagate) {
  ThreadTeam team(4);
  EXPECT_THROW(
      team.parallel_for(16,
                        [&](std::size_t b, std::size_t, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Team must still be usable afterwards.
  std::atomic<int> n{0};
  team.parallel_for(16, [&](std::size_t b, std::size_t e, std::size_t) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 16);
}

/// Runs a loop that throws `what` from `thrower`'s chunk, expects it back,
/// then checks the team still covers a full range.
void expect_rethrown_then_reusable(ThreadTeam& team, std::size_t thrower,
                                   const std::string& what) {
  try {
    team.parallel_for(team.width(),
                      [&](std::size_t, std::size_t, std::size_t w) {
                        if (w == thrower) throw std::runtime_error(what);
                      });
    ADD_FAILURE() << "worker " << thrower << "'s exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
  std::vector<int> hits(100, 0);
  team.parallel_for(hits.size(), [&](std::size_t b, std::size_t e,
                                     std::size_t) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadTeam, AnyWorkersExceptionIsRethrownAndTeamStaysUsable) {
  // Worker 0 is the caller's own chunk, the others run on helpers.
  ThreadTeam team(4);
  for (int round = 0; round < 2; ++round)
    for (std::size_t w = 0; w < team.width(); ++w)
      expect_rethrown_then_reusable(team, w, "worker " + std::to_string(w));
}

TEST(ThreadTeam, OneExceptionWinsWhenEveryChunkThrows) {
  ThreadTeam team(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(team.parallel_for(team.width(),
                                   [](std::size_t, std::size_t, std::size_t) {
                                     throw std::logic_error("every chunk");
                                   }),
                 std::logic_error);
  }
  std::atomic<int> n{0};
  team.parallel_for(8, [&](std::size_t b, std::size_t e, std::size_t) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadTeam, CallerRunsChunkZeroAndEachHelperOneChunk) {
  // The caller leads: worker 0 is the calling thread, so a width-w team
  // brings w-1 threads of its own, and each runs exactly one chunk.
  ThreadTeam team(6);
  std::vector<std::atomic<int>> visited(6);
  std::vector<std::thread::id> runner(6);
  team.parallel_for(6, [&](std::size_t, std::size_t, std::size_t w) {
    visited[w].fetch_add(1);
    runner[w] = std::this_thread::get_id();
  });
  for (const auto& v : visited) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(runner[0], std::this_thread::get_id());
  const std::set<std::thread::id> distinct(runner.begin(), runner.end());
  EXPECT_EQ(distinct.size(), 6u);
}

TEST(ThreadTeam, WidthOneRunsInlineOnTheCaller) {
  ThreadTeam team(1);
  std::thread::id runner;
  std::size_t begin = 1, end = 0;
  team.parallel_for_grain(37, 8, [&](std::size_t b, std::size_t e,
                                     std::size_t w) {
    EXPECT_EQ(w, 0u);
    runner = std::this_thread::get_id();
    begin = b;
    end = e;
  });
  EXPECT_EQ(runner, std::this_thread::get_id());
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 37u);
  EXPECT_THROW(team.parallel_for(4,
                                 [](std::size_t, std::size_t, std::size_t) {
                                   throw std::runtime_error("inline");
                                 }),
               std::runtime_error);
}

TEST(ThreadTeam, DestroyedWhileHelpersParked) {
  // A team that never ran, and one whose only loop was cold: its helpers
  // park as soon as they finish. Either way the destructor must join them.
  for (int i = 0; i < 20; ++i) {
    ThreadTeam never_ran(3);
  }
  for (int i = 0; i < 20; ++i) {
    ThreadTeam team(3);
    std::atomic<int> n{0};
    team.parallel_for(30, [&](std::size_t b, std::size_t e, std::size_t) {
      n.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(n.load(), 30);
  }
}

TEST(ThreadTeam, DestroyedWhileHelpersMaySpin) {
  // Back-to-back loops make the team hot, so its helpers spin after the
  // last one; the team is destroyed straight away. Whether a helper is
  // still spinning, parking or parked at that moment, it must exit.
  for (int i = 0; i < 20; ++i) {
    ThreadTeam team(std::min<std::size_t>(3, host_logical_cores()));
    std::atomic<int> n{0};
    for (int round = 0; round < 5; ++round) {
      team.parallel_for(30, [&](std::size_t b, std::size_t e, std::size_t) {
        n.fetch_add(static_cast<int>(e - b));
      });
    }
    EXPECT_EQ(n.load(), 150);
  }
}

TEST(ThreadTeam, ManyTeamsWiderThanTheHostFromSeveralThreads) {
  // One pool, more widths than cores (up to a cap that keeps the thread
  // count modest on big hosts), several caller threads each dispatching
  // back to back on its own slot's teams: no deadlock, exact coverage.
  const std::size_t top =
      std::min<std::size_t>(host_logical_cores() + 2, 16);
  constexpr std::size_t kCallers = 3;
  constexpr int kRounds = 10;
  constexpr std::size_t kItems = 257;
  TeamPool pool(top);
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kItems, 0));
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < kCallers; ++k) {
    callers.emplace_back([&, k] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t w = 1; w <= top; ++w) {
          ThreadTeam& team = pool.team_pinned(w, CoreSet(), k);
          team.parallel_for(kItems, [&](std::size_t b, std::size_t e,
                                        std::size_t) {
            for (std::size_t i = b; i < e; ++i) ++hits[k][i];
          });
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t k = 0; k < kCallers; ++k)
    for (int h : hits[k]) EXPECT_EQ(h, kRounds * static_cast<int>(top));
  EXPECT_EQ(pool.teams_created(), kCallers * top);
}

TEST(ThreadTeam, WorksWithAffinityHint) {
  CoreSet cores(host_logical_cores());
  const std::size_t width = std::min<std::size_t>(2, host_logical_cores());
  for (std::size_t i = 0; i < width; ++i) cores.add(i);
  ThreadTeam team(width, cores);  // best-effort pinning must not break work
  std::atomic<int> n{0};
  team.parallel_for(32, [&](std::size_t b, std::size_t e, std::size_t) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 32);
}

TEST(TeamPool, CachesTeamsByWidth) {
  TeamPool pool(8);
  ThreadTeam& a = pool.team(4);
  ThreadTeam& b = pool.team(4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(pool.teams_created(), 1u);
  pool.team(2);
  EXPECT_EQ(pool.teams_created(), 2u);
}

TEST(TeamPool, DistinctAffinitiesAreDistinctTeams) {
  TeamPool pool(8);
  CoreSet c1(8), c2(8);
  c1.add(0);
  c1.add(1);
  c2.add(2);
  c2.add(3);
  ThreadTeam& a = pool.team_pinned(2, c1);
  ThreadTeam& b = pool.team_pinned(2, c2);
  EXPECT_NE(&a, &b);
}

TEST(TeamPool, WidthValidation) {
  TeamPool pool(4);
  EXPECT_THROW(pool.team(0), std::invalid_argument);
  EXPECT_THROW(pool.team(5), std::invalid_argument);
  EXPECT_THROW(TeamPool(0), std::invalid_argument);
}

class ParallelForWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForWidths, CorrectForAnyWidth) {
  ThreadTeam team(GetParam());
  std::vector<std::atomic<int>> hits(257);  // deliberately not divisible
  team.parallel_for(hits.size(), [&](std::size_t b, std::size_t e,
                                     std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, ParallelForWidths,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

}  // namespace
}  // namespace opsched
