// `counter`: commutative one-phase delta commits. Three server DistNodes
// each host one shared CommutativeCounter on their own on-disk WalStore;
// three client nodes (also on on-disk WalStores, which hold their
// coordinator logs) each loop { begin; RemoteCounter::add(1) on all three
// servers, in a seeded order; commit } over loopback UDP. Commutative locks
// share, so the adds never wait for each other, and every commit takes the
// one-phase tx.delta path: delta-chain records, compaction every 64 deltas.
//
// Reads: every kRoundActions actions the clients meet at a barrier, and
// there — with no tally in flight — a read-only action reads each server's
// committed_value() and checks it against the actions the clients saw
// commit. Reading a hot counter outside such a pause would queue the
// reader's lock behind an endless stream of adders.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <thread>

#include "client.h"
#include "dist/remote.h"
#include "local_cluster.h"
#include "objects/commutative_counter.h"
#include "report.h"

namespace commitbench {
namespace {

constexpr std::array<mca::NodeId, 3> kServers = {1, 2, 3};
constexpr std::array<mca::NodeId, 3> kClients = {11, 12, 13};
constexpr int kRoundActions = 32;  // actions per client between read barriers
constexpr int kWarmupRounds = 4;
constexpr int kPings = 200;

mca::Uid counter_uid(mca::NodeId server) { return mca::Uid(0x636F756E7400ULL, server); }

// One measured window over a fresh cluster in `dir`. Traced = probes on;
// `untraced_layers` = also measure what the per-layer report takes from an
// untraced run (ping round trip, transport batching).
Phase run_phase(const Options& options, const std::filesystem::path& dir, bool traced,
                bool untraced_layers, Clock::time_point setup_start, CheckerProbe* self_test,
                std::vector<std::string>& violations) {
  Phase phase;
  fresh_dir(dir);
  SpanLog spans(50'000);
  StoreProbe probe;
  probe.spans = &spans;
  SpanLog* s = traced ? &spans : nullptr;

  std::array<std::int64_t, kServers.size()> initial{};
  std::array<std::uint64_t, kClients.size()> committed{};  // per client, warm-up included
  const auto expected = [&](std::size_t server, std::int64_t extra) {
    std::int64_t total = initial[server] + extra;
    for (const std::uint64_t c : committed) total += static_cast<std::int64_t>(c);
    return total;
  };
  {
    std::vector<mca::NodeId> ids(kServers.begin(), kServers.end());
    ids.insert(ids.end(), kClients.begin(), kClients.end());
    LocalCluster cluster(dir, ids, traced ? &probe : nullptr, s);

    std::vector<std::unique_ptr<mca::CommutativeCounter>> counters;
    std::mt19937_64 seed_rng = make_rng(options.seed, 0);
    for (std::size_t i = 0; i < kServers.size(); ++i) {
      mca::DistNode& server = cluster.node(kServers[i]);
      counters.push_back(
          std::make_unique<mca::CommutativeCounter>(server.runtime(), counter_uid(kServers[i])));
      initial[i] = static_cast<std::int64_t>(seed_rng() % 1000) + 1;
      mca::AtomicAction seed(server.runtime());
      seed.begin();
      counters[i]->add(initial[i]);
      if (seed.commit() != mca::Outcome::Committed) {
        throw std::runtime_error("counter: seeding server " + std::to_string(kServers[i]) +
                                 " did not commit");
      }
      server.host(*counters[i]);
      server.rpc().register_service("bench.ping",
                                    [](mca::ByteBuffer&) { return mca::ByteBuffer{}; });
    }

    if (untraced_layers) {
      // The floor of one real-socket RPC: round trips on the idle cluster.
      Samples ping;
      mca::RpcEndpoint& rpc = cluster.node(kClients[0]).rpc();
      for (int i = 0; i < kPings; ++i) {
        const auto t0 = Clock::now();
        const mca::RpcResult r = rpc.call(kServers[i % kServers.size()], "bench.ping", {});
        if (r.ok()) ping.add(micros_between(t0, Clock::now()));
      }
      phase.layers["dist.ping_rtt_p50_us"] = {ping.percentile(0.50), "us"};
    }

    std::array<Window, kClients.size()> windows;
    Window reads;
    std::atomic<bool> stop{false};
    // Runs rounds until `rounds` are done (warm-up) or `deadline` passes.
    const auto run_rounds = [&](int rounds, Clock::time_point deadline) {
      int round = 0;
      stop.store(false);
      const auto on_round = [&]() noexcept {
        try {
          // Every client is between actions: no tally is in flight.
          mca::DistNode& reader = cluster.node(kClients[0]);
          for (std::size_t i = 0; i < kServers.size(); ++i) {
            std::int64_t value = 0;
            mca::AtomicAction action(reader.runtime());
            const bool ok = run_action(action, false, reads, s, [&] {
              value = traced_call(s, "RemoteCounter.committed_value", [&] {
                return mca::RemoteCounter(reader, kServers[i], counter_uid(kServers[i]))
                    .committed_value();
              });
            });
            if (ok && value != expected(i, 0)) {
              violations.push_back("counter: server " + std::to_string(kServers[i]) +
                                   " read " + std::to_string(value) + " mid-run, expected " +
                                   std::to_string(expected(i, 0)));
            }
          }
        } catch (const std::exception& e) {
          violations.push_back(std::string("counter: read barrier: ") + e.what());
        }
        ++round;
        if (rounds > 0 ? round >= rounds : Clock::now() >= deadline) stop.store(true);
      };
      std::barrier sync(static_cast<std::ptrdiff_t>(kClients.size()), on_round);
      const auto client = [&](std::size_t c) {
        mca::DistNode& node = cluster.node(kClients[c]);
        std::mt19937_64 rng = make_rng(options.seed, 100 + c + (rounds > 0 ? 0 : 1000));
        std::array<std::size_t, kServers.size()> order = {0, 1, 2};
        do {
          for (int j = 0; j < kRoundActions; ++j) {
            std::shuffle(order.begin(), order.end(), rng);
            mca::AtomicAction action(node.runtime());
            const bool ok = run_action(action, true, windows[c], s, [&] {
              for (const std::size_t i : order) {
                traced_call(s, "RemoteCounter.add", [&] {
                  mca::RemoteCounter(node, kServers[i], counter_uid(kServers[i])).add(1);
                });
              }
            });
            if (ok) ++committed[c];
          }
          sync.arrive_and_wait();
        } while (!stop.load());
      };
      std::vector<std::thread> pool;
      for (std::size_t c = 0; c < kClients.size(); ++c) pool.emplace_back(client, c);
      for (std::thread& t : pool) t.join();
    };

    run_rounds(kWarmupRounds, {});
    windows = {};
    reads = Window{};
    const LibraryCounters before =
        read_counters(cluster.runtimes(), cluster.wals(), cluster.nodes());
    const mca::UdpTransport::Stats udp_before = cluster.udp().stats();
    const mca::net::Reactor::Stats rx_before = cluster.udp().reactor_stats();
    probe.reset();
    if (traced) cluster.traced_transport()->reset();
    const std::uint64_t bytes_before = written_bytes(::getpid());
    if (traced) spans.start();
    phase.setup_s = seconds_since(setup_start);
    const auto start = Clock::now();
    run_rounds(0, start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options.seconds)));
    phase.window.seconds = seconds_since(start);
    phase.disk_bytes = static_cast<double>(written_bytes(::getpid()) - bytes_before);
    const LibraryCounters after =
        read_counters(cluster.runtimes(), cluster.wals(), cluster.nodes());
    const mca::UdpTransport::Stats udp_after = cluster.udp().stats();
    const mca::net::Reactor::Stats rx_after = cluster.udp().reactor_stats();
    for (const Window& w : windows) merge_window(phase.window, w);
    merge_window(phase.window, reads);
    phase.window.actions -= reads.actions;  // the read probes are not workload actions

    if (untraced_layers) {
      phase.layers["net.rx_datagrams_per_batch"] = {
          ratio(static_cast<double>(rx_after.rx_datagrams - rx_before.rx_datagrams),
                static_cast<double>(rx_after.rx_batches - rx_before.rx_batches)),
          "count"};
      phase.layers["net.tx_datagrams_per_batch"] = {
          ratio(static_cast<double>(udp_after.tx_datagrams - udp_before.tx_datagrams),
                static_cast<double>(udp_after.tx_batches - udp_before.tx_batches)),
          "count"};
    }
    if (traced) {
      add_library_layers(phase.layers, before, after, phase.window);
      add_store_layers(phase.layers, probe, phase.window);
      add_transport_layers(phase.layers, cluster.traced_transport()->totals(), phase.window);
      add_core_phases(phase.layers, phase.window);
      spans.write_csv(
          options.work_dir / "spans" / ("counter-seed" + std::to_string(options.seed) + ".csv"),
          start);
    }

    // Live check: each server's committed value is its seed plus one per
    // action the clients saw commit.
    const auto check_live = [&](std::int64_t extra) {
      std::vector<std::string> found;
      for (std::size_t i = 0; i < kServers.size(); ++i) {
        mca::AtomicAction read(cluster.node(kServers[i]).runtime());
        read.begin();
        const std::int64_t v = counters[i]->committed_value();
        (void)read.commit();
        if (v != expected(i, extra)) {
          found.push_back("counter: server " + std::to_string(kServers[i]) + " holds " +
                          std::to_string(v) + ", expected " + std::to_string(expected(i, extra)));
        }
      }
      return found;
    };
    const std::vector<std::string> live = check_live(0);
    violations.insert(violations.end(), live.begin(), live.end());
    if (self_test != nullptr) {
      self_test->with_truth = live;
      self_test->with_one_extra_action = check_live(1);
    }
    for (mca::WalStore* wal : cluster.wals()) {
      for (const auto& bad : wal->fsck()) {
        violations.push_back("counter: fsck flags " + bad.string());
      }
    }
  }

  // Reopen each server's directory with a fresh store: base + delta chain
  // must fold to the same value.
  for (std::size_t i = 0; i < kServers.size(); ++i) {
    mca::WalStore store(dir / ("node" + std::to_string(kServers[i])));
    mca::Runtime rt(store);
    mca::CommutativeCounter counter(rt, counter_uid(kServers[i]));
    mca::AtomicAction read(rt);
    read.begin();
    const std::int64_t v = counter.committed_value();
    (void)read.commit();
    if (v != expected(i, 0)) {
      violations.push_back("counter: after reopen server " + std::to_string(kServers[i]) +
                           " holds " + std::to_string(v) + ", expected " +
                           std::to_string(expected(i, 0)));
    }
  }
  return phase;
}

}  // namespace

Outcome run_counter(const Options& options, CheckerProbe* self_test) {
  Outcome outcome;
  const std::filesystem::path dir = options.work_dir / "counter";
  const Phase untraced = run_phase(options, dir, false, options.trace, options.process_start,
                                   self_test, outcome.violations);
  std::optional<Phase> traced;
  if (options.trace) {
    traced = run_phase(options, dir, true, false, Clock::now(), nullptr, outcome.violations);
  }
  add_phases(outcome, untraced, traced ? &*traced : nullptr);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return outcome;
}

}  // namespace commitbench
