// Turning probe totals into named metrics, and the benchmark's one table of
// metric names (BENCHMARK.json lists the same names, units and directions).
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "probes.h"

namespace commitbench {

// The RPC services whose round trips and request counts are reported.
inline constexpr const char* kRpcServices[] = {"obj.invoke", "tx.prepare", "tx.commit",
                                               "tx.delta", "ctl.apply"};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  bool end_to_end;     // printed untraced; per-layer metrics are printed traced
};
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

void add_store_layers(Metrics& out, StoreProbe& probe, const Window& w);
void add_transport_layers(Metrics& out, const TracedTransport::Totals& t, const Window& w);

// The last line a run prints: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (trace off) or the per-layer ones (trace on).
[[nodiscard]] std::string result_json(const Outcome& outcome, bool trace);

}  // namespace commitbench
