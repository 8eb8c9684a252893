#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/runtime.h"
#include "dist/node.h"

namespace commitbench {

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream), 0x636D6974u};
  return std::mt19937_64(seq);
}

std::uint64_t written_bytes(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

void merge_window(Window& into, const Window& from) {
  into.actions += from.actions;
  into.updates += from.updates;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.update_us.append(from.update_us);
  into.read_us.append(from.read_us);
  into.work_us.append(from.work_us);
  into.commit_us.append(from.commit_us);
}

void fresh_dir(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

namespace {

void add_end_to_end(Metrics& out, const Window& w, double setup_s, double disk_bytes) {
  out["setup_s"] = {setup_s, "s"};
  out["actions_per_s"] = {ratio(static_cast<double>(w.actions), w.seconds), "actions/s"};
  out["update_p50_us"] = {w.update_us.percentile(0.50), "us"};
  out["update_p90_us"] = {w.update_us.percentile(0.90), "us"};
  out["read_p50_us"] = {w.read_us.percentile(0.50), "us"};
  out["read_p90_us"] = {w.read_us.percentile(0.90), "us"};
  out["disk_bytes_per_update"] = {ratio(disk_bytes, static_cast<double>(w.updates)), "B"};
}

// trace.{untraced,traced}.*: the same workload without and with probes.
void add_trace_overhead(Metrics& out, const Window& untraced, const Window& traced) {
  out["trace.untraced.actions_per_s"] = {
      ratio(static_cast<double>(untraced.actions), untraced.seconds), "actions/s"};
  out["trace.traced.actions_per_s"] = {ratio(static_cast<double>(traced.actions), traced.seconds),
                                       "actions/s"};
  out["trace.untraced.update_p50_us"] = {untraced.update_us.percentile(0.50), "us"};
  out["trace.traced.update_p50_us"] = {traced.update_us.percentile(0.50), "us"};
  // The tail is reported here, ungated: its run-to-run spread on this host
  // (10-23%) is too wide for an end-to-end bound.
  out["trace.untraced.update_p99_us"] = {untraced.update_us.percentile(0.99), "us"};
  out["trace.traced.update_p99_us"] = {traced.update_us.percentile(0.99), "us"};
}

}  // namespace

void add_phases(Outcome& out, const Phase& untraced, const Phase* traced) {
  out.attempted += untraced.window.attempted;
  out.failed += untraced.window.failed;
  add_end_to_end(out.metrics, untraced.window, untraced.setup_s, untraced.disk_bytes);
  if (traced == nullptr) return;
  out.attempted += traced->window.attempted;
  out.failed += traced->window.failed;
  out.metrics.insert(untraced.layers.begin(), untraced.layers.end());
  out.metrics.insert(traced->layers.begin(), traced->layers.end());
  add_trace_overhead(out.metrics, untraced.window, traced->window);
}

LibraryCounters read_counters(const std::vector<mca::Runtime*>& runtimes,
                              const std::vector<mca::WalStore*>& stores,
                              const std::vector<mca::DistNode*>& nodes) {
  LibraryCounters c;
  for (mca::Runtime* rt : runtimes) {
    const mca::LockManager::Stats lock = rt->lock_manager().stats();
    c.lock_grants += lock.grants;
    c.lock_waits += lock.waits;
    c.lock_wait_us += lock.total_wait_micros;
    const mca::Executor::Stats exec = rt->executor().stats();
    c.tasks += exec.executed;
    c.task_wait_us += exec.task_wait_micros;
    c.threads_spawned += exec.threads_spawned;
    const mca::TimerService::Stats timers = rt->timers().stats();
    c.timer_fired += timers.fired;
    c.timer_slop_us += timers.fire_slop_micros_total;
    c.aborted += rt->action_stats().aborted;
  }
  for (mca::WalStore* store : stores) {
    const mca::WalStore::Stats s = store->stats();
    c.wal.records += s.records;
    c.wal.flushes += s.flushes;
    c.wal.fsyncs += s.fsyncs;
    c.wal.checkpoints += s.checkpoints;
  }
  for (mca::DistNode* node : nodes) {
    const mca::DistNode::RecoveryStats r = node->recovery_stats();
    c.recovery_attempts += r.attempts;
    c.recovery_still_pending += r.still_pending;
  }
  return c;
}

void add_library_layers(Metrics& out, const LibraryCounters& b, const LibraryCounters& a,
                        const Window& w) {
  const auto updates = static_cast<double>(w.updates);
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  out["storage.fsyncs_per_update"] = {ratio(d(a.wal.fsyncs, b.wal.fsyncs), updates), "count"};
  out["storage.records_per_update"] = {ratio(d(a.wal.records, b.wal.records), updates), "count"};
  out["storage.records_per_flush"] = {
      ratio(d(a.wal.records, b.wal.records), d(a.wal.flushes, b.wal.flushes)), "count"};
  out["storage.checkpoints"] = {d(a.wal.checkpoints, b.wal.checkpoints), "count"};
  out["lock.grants_per_update"] = {ratio(d(a.lock_grants, b.lock_grants), updates), "count"};
  out["lock.waits_per_update"] = {ratio(d(a.lock_waits, b.lock_waits), updates), "count"};
  out["lock.wait_us_per_update"] = {ratio(d(a.lock_wait_us, b.lock_wait_us), updates), "us"};
  out["common.executor_tasks_per_update"] = {ratio(d(a.tasks, b.tasks), updates), "count"};
  out["common.executor_wait_us_per_task"] = {
      ratio(d(a.task_wait_us, b.task_wait_us), d(a.tasks, b.tasks)), "us"};
  out["common.threads_spawned_in_window"] = {d(a.threads_spawned, b.threads_spawned), "count"};
  out["common.timer_slop_us_mean"] = {
      ratio(d(a.timer_slop_us, b.timer_slop_us), d(a.timer_fired, b.timer_fired)), "us"};
  out["core.aborts"] = {d(a.aborted, b.aborted), "count"};
  out["dist.recovery_attempts_per_s"] = {
      ratio(d(a.recovery_attempts, b.recovery_attempts), w.seconds), "1/s"};
  out["dist.recovery_still_pending"] = {
      d(a.recovery_still_pending, b.recovery_still_pending), "count"};
}

void add_store_layers(Metrics& out, StoreProbe& probe, const Window& w) {
  const auto updates = static_cast<double>(w.updates);
  for (std::size_t c = 0; c < static_cast<std::size_t>(WriteClass::Count); ++c) {
    out[std::string("storage.writes_per_update.") + write_class_name(static_cast<WriteClass>(c))] =
        {ratio(static_cast<double>(probe.writes[c].load()), updates), "count"};
  }
  out["storage.reads_per_update"] = {ratio(static_cast<double>(probe.reads.load()), updates),
                                     "count"};
  out["storage.busy_us_per_update"] = {
      ratio(static_cast<double>(probe.busy_ns.load()) / 1000.0, updates), "us"};
  const std::scoped_lock lock(probe.mutex);
  out["storage.write_wait_p50_us"] = {probe.write_wait_us.percentile(0.50), "us"};
}

void add_transport_layers(Metrics& out, const TracedTransport::Totals& t, const Window& w) {
  const auto updates = static_cast<double>(w.updates);
  out["net.datagrams_per_update"] = {ratio(static_cast<double>(t.datagrams), updates), "count"};
  out["net.bytes_per_update"] = {ratio(static_cast<double>(t.bytes), updates), "B"};
  out["net.retransmits_per_update"] = {ratio(static_cast<double>(t.retransmits), updates),
                                       "count"};
  for (const char* service : kRpcServices) {
    const auto req = t.requests.find(service);
    const auto rtt = t.rtt_us.find(service);
    out[std::string("dist.requests_per_update.") + service] = {
        ratio(req == t.requests.end() ? 0.0 : static_cast<double>(req->second), updates),
        "count"};
    out[std::string("dist.rtt_p50_us.") + service] = {
        rtt == t.rtt_us.end() ? 0.0 : rtt->second.percentile(0.50), "us"};
  }
}

void add_core_phases(Metrics& out, const Window& w) {
  out["core.work_phase_p50_us"] = {w.work_us.percentile(0.50), "us"};
  out["core.commit_phase_p50_us"] = {w.commit_us.percentile(0.50), "us"};
}

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"setup_s", "s", "lower", true},
        {"actions_per_s", "actions/s", "higher", true},
        {"update_p50_us", "us", "lower", true},
        {"update_p90_us", "us", "lower", true},
        {"read_p50_us", "us", "lower", true},
        {"read_p90_us", "us", "lower", true},
        {"disk_bytes_per_update", "B", "lower", true},

        {"net.datagrams_per_update", "count", "lower", false},
        {"net.bytes_per_update", "B", "lower", false},
        {"net.retransmits_per_update", "count", "lower", false},
        {"net.rx_datagrams_per_batch", "count", "higher", false},
        {"net.tx_datagrams_per_batch", "count", "higher", false},
    };
    for (const char* service : kRpcServices) {
      s.push_back({std::string("dist.rtt_p50_us.") + service, "us", "lower", false});
    }
    for (const char* service : kRpcServices) {
      s.push_back({std::string("dist.requests_per_update.") + service, "count", "lower", false});
    }
    const std::vector<MetricSpec> rest = {
        {"dist.ping_rtt_p50_us", "us", "lower", false},
        {"dist.recovery_attempts_per_s", "1/s", "lower", false},
        {"dist.recovery_still_pending", "count", "lower", false},
        {"storage.fsyncs_per_update", "count", "lower", false},
        {"storage.records_per_update", "count", "lower", false},
        {"storage.records_per_flush", "count", "higher", false},
        {"storage.write_wait_p50_us", "us", "lower", false},
        {"storage.busy_us_per_update", "us", "lower", false},
        {"storage.writes_per_update.object_image", "count", "lower", false},
        {"storage.writes_per_update.shadow", "count", "lower", false},
        {"storage.writes_per_update.coordinator_log", "count", "lower", false},
        {"storage.writes_per_update.prepared_marker", "count", "lower", false},
        {"storage.writes_per_update.delta_chain", "count", "lower", false},
        {"storage.writes_per_update.other", "count", "lower", false},
        {"storage.reads_per_update", "count", "lower", false},
        {"storage.checkpoints", "count", "lower", false},
        {"lock.grants_per_update", "count", "lower", false},
        {"lock.waits_per_update", "count", "lower", false},
        {"lock.wait_us_per_update", "us", "lower", false},
        {"core.work_phase_p50_us", "us", "lower", false},
        {"core.commit_phase_p50_us", "us", "lower", false},
        {"core.aborts", "count", "lower", false},
        {"common.executor_tasks_per_update", "count", "lower", false},
        {"common.executor_wait_us_per_task", "us", "lower", false},
        {"common.threads_spawned_in_window", "count", "lower", false},
        {"common.timer_slop_us_mean", "us", "lower", false},
        {"trace.untraced.actions_per_s", "actions/s", "higher", false},
        {"trace.traced.actions_per_s", "actions/s", "higher", false},
        {"trace.untraced.update_p50_us", "us", "lower", false},
        {"trace.traced.update_p50_us", "us", "lower", false},
        {"trace.untraced.update_p99_us", "us", "lower", false},
        {"trace.traced.update_p99_us", "us", "lower", false},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

std::string result_json(const Outcome& outcome, bool trace) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (outcome.violations.empty() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.end_to_end == trace) continue;
    // A layer a workload does not run reads 0 (the local workload sends no
    // datagrams); an end-to-end metric is always measured.
    const auto it = outcome.metrics.find(spec.name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second.value;
    out << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace commitbench
