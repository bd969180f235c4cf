// Schedule traces as Chrome-tracing spans: every executed op of a step's
// EventTrace becomes one span on the lowest concurrency lane free at its
// launch, so the co-running structure the scheduler produced can be
// inspected visually. JSON and file output go through obs::TraceCollector.
#pragma once

#include "graph/graph.hpp"
#include "machine/sim_machine.hpp"
#include "obs/trace.hpp"

namespace opsched {

/// Appends one span per op of `trace` to `out` under process 1: name = the
/// op label, category = the op kind, tid = its concurrency lane.
/// Launch/finish pairs are matched per node id (a node executes once per
/// step); a finish without a launch is skipped.
void append_trace_spans(const EventTrace& trace, const Graph& g,
                        obs::TraceCollector& out);

}  // namespace opsched
