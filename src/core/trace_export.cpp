#include "core/trace_export.hpp"

#include <vector>

namespace opsched {

void append_trace_spans(const EventTrace& trace, const Graph& g,
                        obs::TraceCollector& out) {
  std::vector<double> start_ms(g.size(), 0.0);
  std::vector<int> lane_of(g.size(), -1);  // -1: not launched
  std::vector<bool> lane_busy;
  for (const TraceEvent& e : trace.events()) {
    if (e.is_launch) {
      std::size_t lane = 0;
      while (lane < lane_busy.size() && lane_busy[lane]) ++lane;
      if (lane == lane_busy.size()) lane_busy.push_back(false);
      lane_busy[lane] = true;
      start_ms[e.node] = e.time_ms;
      lane_of[e.node] = static_cast<int>(lane);
      continue;
    }
    const int lane = lane_of[e.node];
    if (lane < 0) continue;
    const Node& node = g.node(e.node);
    out.span(obs::TraceSpan{node.label, std::string(op_kind_name(node.kind)),
                            1, static_cast<std::uint32_t>(lane),
                            start_ms[e.node], e.time_ms - start_ms[e.node]});
    lane_busy[static_cast<std::size_t>(lane)] = false;
    lane_of[e.node] = -1;
  }
}

}  // namespace opsched
