// Shared declarations of the commit-path benchmark (see ../README.md).
//
// One process runs one workload: `transfer` (3 mcad daemons, cross-process
// 2PC), `counter` (commutative one-phase delta commits between in-process
// DistNodes over loopback UDP) or `local` (one Runtime on one WalStore).
// Untraced, a run measures the end-to-end metrics; traced, it runs the
// workload twice — once untraced, once with the probes of probes.h wrapped
// around the store and the transport — and reports the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/wal_store.h"

namespace mca {
class DistNode;
class Runtime;
}  // namespace mca

namespace commitbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;  // data directories and span files
  Clock::time_point process_start;
};

// Latency samples in microseconds.
class Samples {
 public:
  void add(double us) { values_.push_back(us); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  // Nearest-rank percentile, p in [0, 1]; 0 when there are no samples.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What one measured window produced.
struct Window {
  double seconds = 0;
  std::uint64_t actions = 0;  // committed actions (read probes excluded)
  std::uint64_t updates = 0;  // committed actions that wrote
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Samples update_us;
  Samples read_us;
  // Filled by traced runs only.
  Samples work_us;    // begin -> last object call returned
  Samples commit_us;  // inside commit()
};

// Adds `from` into `into` (per-thread windows are merged after the run).
void merge_window(Window& into, const Window& from);

// One measured window and what it yields.
struct Phase {
  Window window;
  Metrics layers;  // the per-layer figures this phase measured
  double setup_s = 0;
  double disk_bytes = 0;
};

// The result of one workload run.
struct Outcome {
  std::vector<std::string> violations;  // empty = every output checked out
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

// A check of one run's outputs against totals the benchmark kept itself. The
// self-test calls it once with the true totals (must pass) and once with the
// totals of one extra committed action (must fail).
struct CheckerProbe {
  std::vector<std::string> with_truth;
  std::vector<std::string> with_one_extra_action;
};

Outcome run_transfer(const Options& options, CheckerProbe* self_test);
Outcome run_counter(const Options& options, CheckerProbe* self_test);
Outcome run_local(const Options& options, CheckerProbe* self_test);

// -- helpers shared by the workloads (report.cpp) -----------------------------

[[nodiscard]] double seconds_since(Clock::time_point t);
[[nodiscard]] double micros_between(Clock::time_point a, Clock::time_point b);

// numerator / denominator, or 0 when nothing was counted.
[[nodiscard]] double ratio(double numerator, double denominator);

// Seeded per-stream generator: the same (seed, stream) gives the same inputs.
[[nodiscard]] std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream);

// Bytes the process wrote to files through write(2)-class calls
// (/proc/<pid>/io `wchar`); 0 when unreadable. The WAL appends and
// checkpoints of the stores are the only file writes inside a window.
[[nodiscard]] std::uint64_t written_bytes(int pid);

// Fills `out` from a run's phases: counts and end-to-end metrics from the
// untraced phase; with a traced phase also the per-layer metrics of both
// (the untraced phase's figure wins where both measured one) and the
// tracing overhead.
void add_phases(Outcome& out, const Phase& untraced, const Phase* traced);

// The library's own counters, summed over every runtime / store / node of a
// run, and their per-window difference turned into per-layer metrics.
struct LibraryCounters {
  mca::WalStore::Stats wal;
  std::uint64_t lock_grants = 0, lock_waits = 0, lock_wait_us = 0;
  std::uint64_t tasks = 0, task_wait_us = 0, threads_spawned = 0;
  std::uint64_t timer_fired = 0, timer_slop_us = 0;
  std::uint64_t aborted = 0;
  std::uint64_t recovery_attempts = 0, recovery_still_pending = 0;
};
[[nodiscard]] LibraryCounters read_counters(const std::vector<mca::Runtime*>& runtimes,
                                            const std::vector<mca::WalStore*>& stores,
                                            const std::vector<mca::DistNode*>& nodes);
void add_library_layers(Metrics& out, const LibraryCounters& before,
                        const LibraryCounters& after, const Window& w);
// core.*_phase_p50_us from the benchmark's own spans.
void add_core_phases(Metrics& out, const Window& w);

// Recursively removes and recreates `dir`.
void fresh_dir(const std::filesystem::path& dir);

}  // namespace commitbench
