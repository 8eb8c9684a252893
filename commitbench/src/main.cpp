// commitbench — one workload of the commit-path benchmark per invocation.
//
//   commitbench --workload transfer|counter|local --seed N --seconds S
//               --trace 0|1 [--work-dir DIR]
//   commitbench --self-test [--work-dir DIR]
//   commitbench --list-metrics
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer ones with --trace 1. A failed output check prints the result
// with "correct": false and exits 1. --self-test runs each workload briefly
// and confirms its checker passes the true totals and fails totals that are
// off by one committed action.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "report.h"

namespace commitbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: commitbench --workload transfer|counter|local --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       commitbench --self-test [--work-dir DIR]\n"
               "       commitbench --list-metrics\n");
  return 2;
}

Outcome run(const Options& options, CheckerProbe* self_test) {
  if (options.workload == "transfer") return run_transfer(options, self_test);
  if (options.workload == "counter") return run_counter(options, self_test);
  if (options.workload == "local") return run_local(options, self_test);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// mcad is built next to this binary; the cluster launcher finds it via
// $MCAD_BIN.
void locate_mcad() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return;
  self[n] = '\0';
  const std::filesystem::path mcad = std::filesystem::path(self).parent_path() / "mcad";
  ::setenv("MCAD_BIN", mcad.c_str(), 0);
}

int self_test(Options options) {
  options.seconds = 1;
  options.trace = false;
  bool all_ok = true;
  for (const char* workload : {"transfer", "counter", "local"}) {
    options.workload = workload;
    CheckerProbe probe;
    const Outcome outcome = run(options, &probe);
    const bool passes_truth = probe.with_truth.empty() && outcome.violations.empty();
    const bool catches_extra = !probe.with_one_extra_action.empty();
    std::printf("self-test %-8s: true totals %s; one extra committed action %s (%s)\n", workload,
                passes_truth ? "pass" : "FAIL", catches_extra ? "caught" : "NOT CAUGHT",
                catches_extra ? probe.with_one_extra_action.front().c_str() : "-");
    for (const std::string& v : outcome.violations) std::printf("  violation: %s\n", v.c_str());
    all_ok = all_ok && passes_truth && catches_extra;
  }
  std::printf("{\"self_test\": %s}\n", all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}

void list_metrics() {
  std::printf("[");
  bool first = true;
  for (const MetricSpec& m : metric_specs()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"end_to_end\": %s}",
                first ? "" : ", ", m.name.c_str(), m.unit.c_str(), m.better.c_str(),
                m.end_to_end ? "true" : "false");
    first = false;
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace commitbench

int main(int argc, char** argv) {
  using namespace commitbench;
  Options options;
  options.process_start = Clock::now();
  options.work_dir = ".bench_build/run";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool want_self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        options.trace = t == "1";
        have_trace = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--self-test") {
        want_self_test = true;
      } else if (arg == "--list-metrics") {
        list_metrics();
        return 0;
      } else {
        std::fprintf(stderr, "commitbench: unknown argument '%s'\n", arg.c_str());
        return usage();
      }
    }
    if (!want_self_test && !(have_workload && have_seed && have_seconds && have_trace)) {
      return usage();
    }
    locate_mcad();
    options.work_dir = std::filesystem::absolute(options.work_dir);
    std::filesystem::create_directories(options.work_dir / "spans");
    if (want_self_test) return self_test(options);

    const Outcome outcome = run(options, nullptr);
    for (const std::string& v : outcome.violations) {
      std::fprintf(stderr, "commitbench: check failed: %s\n", v.c_str());
    }
    std::cout << result_json(outcome, options.trace) << std::endl;
    return outcome.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "commitbench: %s\n", e.what());
    return 1;
  }
}
