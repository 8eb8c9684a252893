// `local`: one Runtime on one on-disk WalStore, no network. Client threads
// (at most nproc, at most 4) run single-object actions over a pool of
// RecoverableInts: about 80% read-only actions (value()) and 20% add(1).
// Keys are drawn from a seeded Zipf distribution, so a few keys are hot and
// reads queue behind writers' locks there. The lock manager, the action
// kernel and WAL group commit are the whole path.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "client.h"
#include "core/runtime.h"
#include "objects/recoverable_int.h"
#include "report.h"

namespace commitbench {
namespace {

constexpr std::size_t kKeys = 64;
constexpr unsigned kMaxThreads = 4;
constexpr double kZipfExponent = 0.8;
constexpr unsigned kReadPercent = 80;
constexpr int kWarmupPerThread = 2'000;
constexpr std::int64_t kInitialRange = 1'000;

mca::Uid key_uid(std::size_t key) { return mca::Uid(0x6C6F63616C00ULL, key); }  // "local"

// Zipf(kZipfExponent) over the key pool: key 0 is the hottest.
class KeyChooser {
 public:
  KeyChooser() {
    double total = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t pick(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), kKeys - 1);
  }

 private:
  std::array<double, kKeys> cdf_{};
};

// One measured window over a fresh store in `dir`. `expected` receives each
// key's initial value plus the adds the clients saw commit.
Phase run_phase(const Options& options, const std::filesystem::path& dir, bool traced,
                Clock::time_point setup_start, std::vector<std::int64_t>& expected,
                CheckerProbe* self_test, std::vector<std::string>& violations) {
  Phase phase;
  fresh_dir(dir);
  const unsigned threads =
      std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, kMaxThreads);

  SpanLog spans(50'000);
  StoreProbe probe;
  probe.spans = &spans;
  {
    mca::WalStore wal(dir / "wal");
    std::optional<TracedStore> traced_store;
    if (traced) traced_store.emplace(wal, probe);
    mca::ObjectStore& store = traced ? static_cast<mca::ObjectStore&>(*traced_store) : wal;
    mca::Runtime rt(store);

    // Seeding: one committed action per key, as a daemon seeds its objects.
    std::mt19937_64 seed_rng = make_rng(options.seed, 0);
    std::vector<std::unique_ptr<mca::RecoverableInt>> ints;
    expected.assign(kKeys, 0);
    for (std::size_t k = 0; k < kKeys; ++k) {
      ints.push_back(std::make_unique<mca::RecoverableInt>(rt, key_uid(k)));
      expected[k] = static_cast<std::int64_t>(seed_rng() % kInitialRange);
      mca::AtomicAction seed(rt);
      seed.begin();
      ints[k]->set(expected[k]);
      if (seed.commit() != mca::Outcome::Committed) {
        throw std::runtime_error("local: seeding key " + std::to_string(k) + " did not commit");
      }
    }

    const KeyChooser chooser;
    std::vector<Window> windows(threads);
    std::vector<std::vector<std::int64_t>> adds(threads, std::vector<std::int64_t>(kKeys, 0));
    const auto client = [&](unsigned t, int warmup, Clock::time_point deadline) {
      std::mt19937_64 rng = make_rng(options.seed, 100 + t + (warmup > 0 ? 0 : 1000));
      Window& w = windows[t];
      for (int i = 0; warmup > 0 ? i < warmup : Clock::now() < deadline; ++i) {
        const std::size_t k = chooser.pick(rng);
        const bool update = rng() % 100 >= kReadPercent;
        mca::AtomicAction action(rt);
        SpanLog* s = traced ? &spans : nullptr;
        const bool ok = run_action(action, update, w, s, [&] {
          if (update) {
            traced_call(s, "RecoverableInt.add", [&] { ints[k]->add(1); });
          } else {
            (void)traced_call(s, "RecoverableInt.value", [&] { return ints[k]->value(); });
          }
        });
        if (ok && update) ++adds[t][k];
      }
    };
    const auto run_clients = [&](int warmup, Clock::time_point deadline) {
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) pool.emplace_back(client, t, warmup, deadline);
      for (std::thread& th : pool) th.join();
    };

    run_clients(kWarmupPerThread, {});
    for (Window& w : windows) w = Window{};
    const LibraryCounters before = read_counters({&rt}, {&wal}, {});
    probe.reset();
    const std::uint64_t bytes_before = written_bytes(::getpid());
    if (traced) spans.start();
    phase.setup_s = seconds_since(setup_start);
    const auto start = Clock::now();
    run_clients(0, start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(options.seconds)));
    phase.window.seconds = seconds_since(start);
    phase.disk_bytes = static_cast<double>(written_bytes(::getpid()) - bytes_before);
    const LibraryCounters after = read_counters({&rt}, {&wal}, {});
    for (const Window& w : windows) merge_window(phase.window, w);
    if (traced) {
      add_library_layers(phase.layers, before, after, phase.window);
      add_store_layers(phase.layers, probe, phase.window);
      add_core_phases(phase.layers, phase.window);
      spans.write_csv(
          options.work_dir / "spans" / ("local-seed" + std::to_string(options.seed) + ".csv"),
          start);
    }
    for (const auto& per_thread : adds) {
      for (std::size_t k = 0; k < kKeys; ++k) expected[k] += per_thread[k];
    }

    // Live check: every key holds its initial value plus its committed adds.
    const auto check_live = [&](const std::vector<std::int64_t>& want) {
      std::vector<std::string> found;
      mca::AtomicAction read(rt);
      read.begin();
      for (std::size_t k = 0; k < kKeys; ++k) {
        const std::int64_t v = ints[k]->value();
        if (v != want[k]) {
          found.push_back("local: key " + std::to_string(k) + " holds " + std::to_string(v) +
                          ", expected " + std::to_string(want[k]));
        }
      }
      (void)read.commit();
      return found;
    };
    const std::vector<std::string> live = check_live(expected);
    violations.insert(violations.end(), live.begin(), live.end());
    if (self_test != nullptr) {
      self_test->with_truth = live;
      std::vector<std::int64_t> one_more = expected;
      ++one_more[0];
      self_test->with_one_extra_action = check_live(one_more);
    }
    for (const auto& bad : wal.fsck()) {
      violations.push_back("local: fsck flags " + bad.string());
    }
  }

  // Reopen: a fresh store replays the log; every key must read back the same.
  mca::WalStore reopened(dir / "wal");
  mca::Runtime rt(reopened);
  mca::AtomicAction read(rt);
  read.begin();
  for (std::size_t k = 0; k < kKeys; ++k) {
    mca::RecoverableInt value(rt, key_uid(k));
    if (value.value() != expected[k]) {
      violations.push_back("local: after reopen key " + std::to_string(k) + " holds " +
                           std::to_string(value.value()) + ", expected " +
                           std::to_string(expected[k]));
    }
  }
  (void)read.commit();
  return phase;
}

}  // namespace

Outcome run_local(const Options& options, CheckerProbe* self_test) {
  Outcome outcome;
  std::vector<std::int64_t> expected;
  const std::filesystem::path dir = options.work_dir / "local";
  const Phase untraced = run_phase(options, dir, false, options.process_start, expected,
                                   self_test, outcome.violations);
  std::optional<Phase> traced;
  if (options.trace) {
    traced = run_phase(options, dir, true, Clock::now(), expected, nullptr, outcome.violations);
  }
  add_phases(outcome, untraced, traced ? &*traced : nullptr);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return outcome;
}

}  // namespace commitbench
