// Schedule traces as Chrome-tracing spans (append_trace_spans). JSON
// export itself is obs::TraceCollector's contract (tests/obs/trace_test).
#include "core/trace_export.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "models/models.hpp"
#include "util/json.hpp"

namespace opsched {
namespace {

TEST(TraceExport, PairsLaunchAndFinish) {
  GraphBuilder gb;
  const NodeId a =
      gb.source(OpKind::kConv2D, "my_op", TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();

  EventTrace trace;
  trace.record(1.0, true, a, OpKind::kConv2D, 1);
  trace.record(3.5, false, a, OpKind::kConv2D, 0);
  obs::TraceCollector tc;
  append_trace_spans(trace, g, tc);
  const std::vector<obs::TraceSpan> spans = tc.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "my_op");
  EXPECT_EQ(spans[0].cat, "Conv2D");
  EXPECT_EQ(spans[0].pid, 1u);
  EXPECT_DOUBLE_EQ(spans[0].start_ms, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_ms, 2.5);
}

TEST(TraceExport, OverlappingOpsGetDistinctLanes) {
  GraphBuilder gb;
  const NodeId a = gb.source(OpKind::kConv2D, "a", TensorShape{2, 4, 4, 8});
  const NodeId b = gb.source(OpKind::kConv2D, "b", TensorShape{2, 4, 4, 8});
  const NodeId c = gb.source(OpKind::kConv2D, "c", TensorShape{2, 4, 4, 8});
  const Graph g = gb.take();

  EventTrace trace;
  trace.record(0.0, true, a, OpKind::kConv2D, 1);
  trace.record(0.5, true, b, OpKind::kConv2D, 2);
  trace.record(1.0, false, a, OpKind::kConv2D, 1);
  trace.record(1.2, true, c, OpKind::kConv2D, 2);  // reuses a's free lane
  trace.record(1.5, false, b, OpKind::kConv2D, 1);
  trace.record(2.0, false, c, OpKind::kConv2D, 0);
  obs::TraceCollector tc;
  append_trace_spans(trace, g, tc);
  const std::vector<obs::TraceSpan> spans = tc.spans();
  ASSERT_EQ(spans.size(), 3u);  // in finish order: a, b, c
  EXPECT_EQ(spans[0].tid, 0u);
  EXPECT_EQ(spans[1].tid, 1u);
  EXPECT_EQ(spans[2].tid, 0u);
}

TEST(TraceExport, FullStepTraceRoundTripsToFile) {
  const Graph g = build_dcgan();
  Runtime rt(MachineSpec::knl());
  rt.profile(g);
  const StepResult r = rt.run_step(g);

  obs::TraceCollector tc;
  append_trace_spans(r.trace, g, tc);
  const std::string path = std::string(::testing::TempDir()) + "/trace.json";
  tc.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  // One complete event per executed op.
  const json::JsonValue doc = json::parse(content);
  ASSERT_EQ(doc.kind, json::JsonValue::Kind::kArray);
  std::size_t events = 0;
  for (const json::JsonValue& e : *doc.array) {
    if (json::str_member(e, "ph") == "X") ++events;
  }
  EXPECT_EQ(events, g.size());
}

}  // namespace
}  // namespace opsched
