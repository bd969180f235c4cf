// TraceCollector export contract: always-valid Chrome trace JSON
// (metadata first, spans in append order, ms -> µs), robust against
// adversarial span names. Every check parses the emitted text with
// util/json so escaping bugs fail loudly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace opsched::obs {
namespace {

TEST(TraceCollector, EmptyCollectorEmitsValidEmptyArray) {
  TraceCollector tc;
  const json::JsonValue doc = json::parse(tc.to_chrome_json());
  ASSERT_EQ(doc.kind, json::JsonValue::Kind::kArray);
  EXPECT_TRUE(doc.array->empty());
}

TEST(TraceCollector, MetadataPrecedesSpansAndUnitsAreMicroseconds) {
  TraceCollector tc;
  tc.set_process_name(2, "shard 1");
  tc.set_track_name(2, 7, "job 7 train");
  tc.span({"step 0", "step", 2, 0, 1.5, 3.25});
  tc.span({"req 1", "request", 2, 7, 10.0, 0.5});

  const json::JsonValue doc = json::parse(tc.to_chrome_json());
  const json::JsonArray& events = *doc.array;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(json::str_member(events[0], "ph"), "M");
  EXPECT_EQ(json::str_member(events[0], "name"), "process_name");
  EXPECT_EQ(json::str_member(json::member(events[0], "args"), "name"),
            "shard 1");
  EXPECT_EQ(json::str_member(events[1], "ph"), "M");
  EXPECT_EQ(json::str_member(events[1], "name"), "thread_name");

  EXPECT_EQ(json::str_member(events[2], "ph"), "X");
  EXPECT_EQ(json::str_member(events[2], "name"), "step 0");
  EXPECT_DOUBLE_EQ(json::num_member(events[2], "ts"), 1500.0);
  EXPECT_DOUBLE_EQ(json::num_member(events[2], "dur"), 3250.0);
  EXPECT_DOUBLE_EQ(json::num_member(events[2], "pid"), 2.0);
  EXPECT_EQ(json::str_member(events[3], "cat"), "request");
  EXPECT_DOUBLE_EQ(json::num_member(events[3], "tid"), 7.0);
}

TEST(TraceCollector, AdversarialNamesRoundTrip) {
  const std::string evil = "op \"7\"\\bwd\nmatmul\ttab\x01末";
  TraceCollector tc;
  tc.set_process_name(1, evil);
  tc.span({evil, "cat\"\\", 1, 0, 0.0, 1.0});

  const json::JsonValue doc = json::parse(tc.to_chrome_json());
  const json::JsonArray& events = *doc.array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(json::str_member(json::member(events[0], "args"), "name"), evil);
  EXPECT_EQ(json::str_member(events[1], "name"), evil);
  EXPECT_EQ(json::str_member(events[1], "cat"), "cat\"\\");
}

TEST(TraceCollector, AppendOrderIsExportOrder) {
  TraceCollector tc;
  for (int i = 0; i < 5; ++i) {
    tc.span({"s" + std::to_string(i), "t", 1, 0,
             static_cast<double>(5 - i), 1.0});  // deliberately unsorted times
  }
  const json::JsonValue doc = json::parse(tc.to_chrome_json());
  const json::JsonArray& events = *doc.array;
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(json::str_member(events[static_cast<std::size_t>(i)], "name"),
              "s" + std::to_string(i));
  }
  // Determinism: the same collector exports byte-identical text.
  EXPECT_EQ(tc.to_chrome_json(), tc.to_chrome_json());
}

TEST(TraceCollector, ClearResetsEverything) {
  TraceCollector tc;
  tc.set_process_name(1, "svc");
  tc.span({"a", "b", 1, 0, 0.0, 1.0});
  EXPECT_EQ(tc.size(), 1u);
  tc.clear();
  EXPECT_EQ(tc.size(), 0u);
  const json::JsonValue doc = json::parse(tc.to_chrome_json());
  EXPECT_TRUE(doc.array->empty());
}

TEST(TraceCollector, WriteToUnwritablePathThrows) {
  TraceCollector tc;
  tc.span({"a", "b", 1, 0, 0.0, 1.0});
  EXPECT_THROW(tc.write("/no-such-dir-xyz/t.json"), std::runtime_error);
}

}  // namespace
}  // namespace opsched::obs
