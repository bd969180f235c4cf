#include "machine/sim_machine.hpp"

#include <gtest/gtest.h>

#include "models/op_factory.hpp"

namespace opsched {
namespace {

class SimMachineTest : public ::testing::Test {
 protected:
  SimMachineTest() : model_(spec_), machine_(spec_, model_) {}

  Node op(NodeId id, OpKind kind = OpKind::kConv2D) {
    Node n = make_conv_op(kind, 32, 8, 8, 384, 3, 3, 384);
    n.id = id;
    return n;
  }

  MachineSpec spec_ = MachineSpec::knl();
  CostModel model_;
  SimMachine machine_;
};

TEST_F(SimMachineTest, StartsQuiescent) {
  EXPECT_TRUE(machine_.quiescent());
  EXPECT_EQ(machine_.now_ms(), 0.0);
  EXPECT_EQ(machine_.idle_cores().count(), 68u);
  EXPECT_FALSE(machine_.advance().has_value());
}

TEST_F(SimMachineTest, LaunchAdvanceCompletes) {
  const Node n = op(0);
  machine_.launch(n, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  EXPECT_EQ(machine_.num_running(), 1u);
  EXPECT_EQ(machine_.idle_cores().count(), 34u);
  const auto c = machine_.advance();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->node, 0u);
  EXPECT_GT(c->finish_ms, 0.0);
  EXPECT_NEAR(c->actual_ms, c->solo_ms, c->solo_ms * 0.01);  // ran alone
  EXPECT_TRUE(machine_.quiescent());
}

TEST_F(SimMachineTest, ExclusiveLaunchRequiresIdleCores) {
  machine_.launch(op(0), 34, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 34));
  EXPECT_THROW(machine_.launch(op(1), 34, AffinityMode::kSpread,
                               CoreSet::range(68, 20, 34)),
               std::logic_error);
  // Disjoint cores are fine.
  EXPECT_NO_THROW(machine_.launch(op(1), 34, AffinityMode::kSpread,
                                  CoreSet::range(68, 34, 34)));
}

TEST_F(SimMachineTest, LaunchValidation) {
  EXPECT_THROW(machine_.launch(op(0), 0, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 4)),
               std::invalid_argument);
  EXPECT_THROW(machine_.launch(op(0), 4, AffinityMode::kSpread, CoreSet(68)),
               std::invalid_argument);
  EXPECT_THROW(machine_.launch(op(0), 4, AffinityMode::kSpread,
                               CoreSet::range(16, 0, 4)),
               std::invalid_argument);
}

TEST_F(SimMachineTest, CorunInterferenceStretchesBothOps) {
  // Two bandwidth-heavy ops on disjoint halves run slower than alone.
  Node a = make_activation_op(OpKind::kApplyAdam, 64, 32, 32, 64);
  a.id = 0;
  Node b = make_activation_op(OpKind::kApplyAdam, 64, 32, 32, 64);
  b.id = 1;
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 34, 34));
  const auto c1 = machine_.advance();
  const auto c2 = machine_.advance();
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(c1->actual_ms, c1->solo_ms * 1.02);
  EXPECT_GT(c2->actual_ms, c2->solo_ms * 1.02);
}

TEST_F(SimMachineTest, ComputeBoundPairBarelyInterferes) {
  Node a = op(0);
  Node b = op(1, OpKind::kConv2DBackpropInput);
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 34, 34));
  const auto c1 = machine_.advance();
  ASSERT_TRUE(c1);
  EXPECT_LT(c1->actual_ms, c1->solo_ms * 1.15);
}

TEST_F(SimMachineTest, OverlayRulesEnforced) {
  machine_.launch(op(0), 68, AffinityMode::kSpread, CoreSet::all(68));
  EXPECT_EQ(machine_.idle_cores().count(), 0u);
  EXPECT_EQ(machine_.overlayable_cores().count(), 68u);
  // Overlay rides the busy cores.
  Node small = make_activation_op(OpKind::kBiasAdd, 8, 8, 8, 64);
  small.id = 1;
  machine_.launch(small, 16, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 16), LaunchKind::kOverlay);
  EXPECT_EQ(machine_.overlayable_cores().count(), 52u);
  // A second overlay on the same cores is rejected.
  Node small2 = small;
  small2.id = 2;
  EXPECT_THROW(machine_.launch(small2, 8, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 8), LaunchKind::kOverlay),
               std::logic_error);
  // Overlay on idle cores is also rejected (nothing to overlay).
  machine_.reset();
  EXPECT_THROW(machine_.launch(small, 8, AffinityMode::kSpread,
                               CoreSet::range(68, 0, 8), LaunchKind::kOverlay),
               std::logic_error);
}

TEST_F(SimMachineTest, OverlaySlowsPrimaryModestly) {
  Node big = op(0);
  machine_.launch(big, 68, AffinityMode::kSpread, CoreSet::all(68));
  Node small = make_activation_op(OpKind::kBiasAdd, 16, 16, 16, 64);
  small.id = 1;
  machine_.launch(small, 16, AffinityMode::kSpread,
                  CoreSet::range(68, 0, 16), LaunchKind::kOverlay);
  // The overlaid streaming op gets the leftover hyper-thread capacity; the
  // compute-bound primary keeps most of its speed.
  const auto first = machine_.advance();
  const auto second = machine_.advance();
  ASSERT_TRUE(first && second);
  const auto& primary = first->node == 0 ? *first : *second;
  EXPECT_LT(primary.actual_ms, primary.solo_ms * 1.45);
}

TEST_F(SimMachineTest, StackedLaunchSharesCapacity) {
  // Two identical ops stacked on all cores (the Table III HT strategy)
  // finish in roughly the time of one op at ~half speed, not two serial.
  Node a = table3_backprop_filter();
  a.id = 0;
  Node b = table3_backprop_input();
  b.id = 1;
  const double solo_a = model_.exec_time_ms(a, 68, AffinityMode::kSpread);
  const double solo_b = model_.exec_time_ms(b, 68, AffinityMode::kSpread);
  machine_.launch(a, 68, AffinityMode::kSpread, CoreSet::all(68),
                  LaunchKind::kStacked);
  machine_.launch(b, 68, AffinityMode::kSpread, CoreSet::all(68),
                  LaunchKind::kStacked);
  double last = 0.0;
  while (const auto c = machine_.advance()) last = c->finish_ms;
  const double serial = solo_a + solo_b;
  EXPECT_LT(last, serial * 1.1);   // not worse than serial by much
  EXPECT_GT(last, serial * 0.75);  // no free lunch either
}

TEST_F(SimMachineTest, EventTraceRecordsLaunchAndFinish) {
  machine_.trace().clear();
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(op(1), 34, AffinityMode::kSpread,
                  CoreSet::range(68, 34, 34));
  while (machine_.advance()) {
  }
  const EventTrace& trace = machine_.trace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_TRUE(trace.events()[0].is_launch);
  EXPECT_EQ(trace.events()[0].corun_after, 1);
  EXPECT_EQ(trace.events()[1].corun_after, 2);
  EXPECT_FALSE(trace.events()[3].is_launch);
  EXPECT_EQ(trace.events()[3].corun_after, 0);
  EXPECT_EQ(trace.max_corun(), 2);
  EXPECT_NEAR(trace.mean_corun(), (1 + 2 + 1 + 0) / 4.0, 1e-12);
}

TEST_F(SimMachineTest, ClockAdvancesMonotonically) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(op(1), 17, AffinityMode::kSpread,
                  CoreSet::range(68, 34, 17));
  double prev = 0.0;
  while (const auto c = machine_.advance()) {
    EXPECT_GE(c->finish_ms, prev);
    prev = c->finish_ms;
    EXPECT_DOUBLE_EQ(machine_.now_ms(), c->finish_ms);
  }
}

TEST_F(SimMachineTest, ResetClearsState) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.reset();
  EXPECT_TRUE(machine_.quiescent());
  EXPECT_EQ(machine_.now_ms(), 0.0);
  EXPECT_EQ(machine_.idle_cores().count(), 68u);
}

TEST_F(SimMachineTest, TeamResizePenaltyChargedOnWidthChange) {
  // Same kind at the same width: no penalty. Different width: penalty.
  const Node a = op(0);
  machine_.launch(a, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const auto c1 = machine_.advance();
  Node b = op(1);
  machine_.launch(b, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const auto c2 = machine_.advance();
  Node c = op(2);
  machine_.launch(c, 20, AffinityMode::kSpread, CoreSet::range(68, 0, 20));
  const auto c3 = machine_.advance();
  ASSERT_TRUE(c1 && c2 && c3);
  EXPECT_NEAR(c2->actual_ms, c2->solo_ms, 1e-9);  // same width: no penalty
  EXPECT_GT(c3->actual_ms, c3->solo_ms + team_resize_penalty_ms() * 0.99);
}

TEST_F(SimMachineTest, MaxRemainingTracksLongestOp) {
  Node big = table3_backprop_filter();
  big.id = 0;
  Node small = make_activation_op(OpKind::kBiasAdd, 2, 4, 4, 8);
  small.id = 1;
  machine_.launch(big, 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  const double after_big = machine_.max_remaining_ms();
  machine_.launch(small, 8, AffinityMode::kSpread,
                  CoreSet::range(68, 34, 8));
  EXPECT_GE(machine_.max_remaining_ms(), after_big * 0.99);
  EXPECT_GT(after_big, 0.0);
}

// --- maintained masks -------------------------------------------------------
//
// SimMachine keeps idle_cores() and overlayable_cores() current across
// launch/advance/reset instead of deriving them per call. These tests rebuild
// both masks core by core from running() after every event, in the cases
// where a maintained mask goes wrong: stacked tasks sharing cores, an
// overlay finishing before its primary, and reset().

void expect_masks_match_running(const SimMachine& m) {
  const std::size_t n = m.spec().num_cores;
  CoreSet idle(n), overlayable(n);
  for (std::size_t c = 0; c < n; ++c) {
    bool primary = false, overlaid = false;
    for (const SimMachine::RunningTask& t : m.running()) {
      if (!t.cores.contains(c)) continue;
      if (t.launch_kind == LaunchKind::kOverlay) overlaid = true;
      else primary = true;
    }
    if (!primary) idle.add(c);
    if (primary && !overlaid) overlayable.add(c);
  }
  EXPECT_EQ(m.idle_cores(), idle) << m.idle_cores().to_string() << " vs "
                                  << idle.to_string();
  EXPECT_EQ(m.overlayable_cores(), overlayable)
      << m.overlayable_cores().to_string() << " vs "
      << overlayable.to_string();
}

TEST_F(SimMachineTest, MasksTrackStackedTasksSharingCores) {
  expect_masks_match_running(machine_);
  // Two stacked teams overlap on cores 4-7; a third stacks on cores 6-9.
  machine_.launch(op(0), 8, AffinityMode::kSpread, CoreSet::range(68, 0, 8),
                  LaunchKind::kStacked);
  machine_.launch(op(1), 8, AffinityMode::kSpread, CoreSet::range(68, 4, 8),
                  LaunchKind::kStacked);
  machine_.launch(op(2), 4, AffinityMode::kSpread, CoreSet::range(68, 6, 4),
                  LaunchKind::kStacked);
  expect_masks_match_running(machine_);
  EXPECT_EQ(machine_.idle_cores().count(), 68u - 12u);
  // Completing one stacked task must not free cores another still holds.
  for (int done = 0; done < 3; ++done) {
    ASSERT_TRUE(machine_.advance().has_value());
    expect_masks_match_running(machine_);
  }
  EXPECT_TRUE(machine_.quiescent());
  EXPECT_EQ(machine_.idle_cores(), CoreSet::all(68));
}

TEST_F(SimMachineTest, MasksTrackOverlayFinishingBeforeItsPrimary) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  Node small = make_activation_op(OpKind::kBiasAdd, 2, 4, 4, 8);
  small.id = 1;
  machine_.launch(small, 8, AffinityMode::kSpread, CoreSet::range(68, 0, 8),
                  LaunchKind::kOverlay);
  expect_masks_match_running(machine_);
  EXPECT_EQ(machine_.overlayable_cores(), CoreSet::range(68, 8, 26));

  const auto first = machine_.advance();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->launch_kind, LaunchKind::kOverlay);
  expect_masks_match_running(machine_);
  // The primary's cores take an overlay again; they are still not idle.
  EXPECT_EQ(machine_.overlayable_cores(), CoreSet::range(68, 0, 34));
  EXPECT_EQ(machine_.idle_cores(), CoreSet::range(68, 34, 34));

  ASSERT_TRUE(machine_.advance().has_value());
  expect_masks_match_running(machine_);
  EXPECT_TRUE(machine_.overlayable_cores().empty());
}

TEST_F(SimMachineTest, MasksResetWithTheMachine) {
  machine_.launch(op(0), 34, AffinityMode::kSpread, CoreSet::range(68, 0, 34));
  machine_.launch(op(1), 8, AffinityMode::kSpread, CoreSet::range(68, 0, 8),
                  LaunchKind::kOverlay);
  machine_.launch(op(2), 8, AffinityMode::kSpread, CoreSet::range(68, 30, 8),
                  LaunchKind::kStacked);
  expect_masks_match_running(machine_);
  machine_.reset();
  expect_masks_match_running(machine_);
  EXPECT_EQ(machine_.idle_cores(), CoreSet::all(68));
  EXPECT_TRUE(machine_.overlayable_cores().empty());
  // Launches after the reset see the rebuilt masks.
  EXPECT_NO_THROW(machine_.launch(op(3), 68, AffinityMode::kSpread,
                                  CoreSet::all(68)));
  expect_masks_match_running(machine_);
}

}  // namespace
}  // namespace opsched
