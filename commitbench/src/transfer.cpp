// `transfer`: the deployment's canonical commit. Three mcad daemons run as
// separate OS processes, each on its default on-disk WalStore (fsync on) and
// the loopback UDP reactor, with no witnesses. Three clients with disjoint
// keys each loop 3-leg transfers (-2, +1, +1; the debited node is seeded)
// through ctl.apply, with the coordinator rotating over the nodes: every
// action is a full classical 2PC across all three processes. Every
// kReadEvery-th operation of a client is a read probe instead: ctl.peek of
// one of its own keys, checked against the client's running total (only
// that client writes the key, so the value is exact).
//
// The traced run adds a second phase that runs the same nodes, clients and
// legs in this process — one AtomicAction at the rotating coordinator, local
// add plus RemoteInt::add, exactly as ctl.apply does — so the probes see
// every store call and every datagram.
#include <unistd.h>

#include <array>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "apps/mcad/daemon.h"
#include "client.h"
#include "dist/remote.h"
#include "local_cluster.h"
#include "net/cluster.h"
#include "objects/recoverable_int.h"
#include "report.h"
#include "sim/consistency_check.h"

namespace commitbench {
namespace {

using mca::apps::TransferLeg;

constexpr std::array<mca::NodeId, 3> kNodes = {1, 2, 3};
constexpr std::size_t kClients = 3;
constexpr int kWarmupPerClient = 100;
constexpr int kReadEvery = 8;
constexpr int kPings = 200;

std::uint32_t key_of(std::size_t client, std::size_t node) {
  return static_cast<std::uint32_t>(100 * (node + 1) + client);
}

// expected[client][node]: the value of key_of(client, node) on kNodes[node].
using Expected = std::array<std::array<std::int64_t, kNodes.size()>, kClients>;

Expected seeded_initial(std::uint64_t seed) {
  std::mt19937_64 rng = make_rng(seed, 0);
  Expected e{};
  for (auto& per_client : e) {
    for (std::int64_t& v : per_client) v = 1'000'000 + static_cast<std::int64_t>(rng() % 1000);
  }
  return e;
}

std::int64_t total(const Expected& e) {
  std::int64_t sum = 0;
  for (const auto& per_client : e) sum = std::accumulate(per_client.begin(), per_client.end(), sum);
  return sum;
}

// One transfer of client `c`: -2 on the seeded debit node, +1 on the others.
std::vector<TransferLeg> legs_for(std::size_t c, std::size_t debit) {
  std::vector<TransferLeg> legs;
  for (std::size_t n = 0; n < kNodes.size(); ++n) {
    legs.push_back({kNodes[n], key_of(c, n), n == debit ? -2 : 1});
  }
  return legs;
}

void apply_legs(Expected& e, std::size_t c, const std::vector<TransferLeg>& legs) {
  for (std::size_t n = 0; n < legs.size(); ++n) e[c][n] += legs[n].delta;
}

// What the checks read back: value of (client, node) key, or nullopt.
using Reader = std::function<std::optional<std::int64_t>(std::size_t client, std::size_t node)>;

std::vector<std::string> check_values(const Reader& read, const Expected& want,
                                      std::int64_t initial_total) {
  std::vector<std::string> found;
  std::int64_t sum = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t n = 0; n < kNodes.size(); ++n) {
      const auto v = read(c, n);
      if (!v) {
        found.push_back("transfer: key " + std::to_string(key_of(c, n)) + " on node " +
                        std::to_string(kNodes[n]) + " unreadable");
        continue;
      }
      sum += *v;
      if (*v != want[c][n]) {
        found.push_back("transfer: key " + std::to_string(key_of(c, n)) + " on node " +
                        std::to_string(kNodes[n]) + " holds " + std::to_string(*v) +
                        ", expected " + std::to_string(want[c][n]));
      }
    }
  }
  if (sum != initial_total) {
    found.push_back("transfer: keys sum to " + std::to_string(sum) + ", initial total " +
                    std::to_string(initial_total));
  }
  return found;
}

// The client loop shared by both phases. `transfer` runs one transfer and
// says whether it committed (throwing when its outcome is unknown); `peek`
// reads one key back.
struct ClientOps {
  std::function<bool(std::size_t c, mca::NodeId coordinator,
                     const std::vector<TransferLeg>& legs, Window& w)>
      transfer;
  std::function<std::optional<std::int64_t>(std::size_t c, std::size_t node)> peek;
};

void run_clients(const Options& options, const ClientOps& ops, int warmup,
                 Clock::time_point deadline, Expected& expected,
                 std::array<Window, kClients>& windows, std::vector<std::string>& violations,
                 std::mutex& violations_mutex) {
  const auto client = [&](std::size_t c) {
    std::mt19937_64 rng = make_rng(options.seed, 100 + c + (warmup > 0 ? 0 : 1000));
    Window& w = windows[c];
    for (int i = 0; warmup > 0 ? i < warmup : Clock::now() < deadline; ++i) {
      if (i % kReadEvery == kReadEvery - 1) {
        const std::size_t n = rng() % kNodes.size();
        const auto t0 = Clock::now();
        const auto v = ops.peek(c, n);
        ++w.attempted;
        if (!v) {
          ++w.failed;
          continue;
        }
        w.read_us.add(micros_between(t0, Clock::now()));
        if (*v != expected[c][n]) {
          const std::scoped_lock lock(violations_mutex);
          violations.push_back("transfer: peek of key " + std::to_string(key_of(c, n)) +
                               " read " + std::to_string(*v) + ", expected " +
                               std::to_string(expected[c][n]));
        }
        continue;
      }
      const mca::NodeId coordinator = kNodes[(c + static_cast<std::size_t>(i)) % kNodes.size()];
      const std::vector<TransferLeg> legs = legs_for(c, rng() % kNodes.size());
      try {
        if (ops.transfer(c, coordinator, legs, w)) apply_legs(expected, c, legs);
      } catch (const std::exception& e) {
        const std::scoped_lock lock(violations_mutex);
        violations.push_back(std::string("transfer: ") + e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < kClients; ++c) pool.emplace_back(client, c);
  for (std::thread& t : pool) t.join();
}

Clock::time_point deadline_after(const Options& options, Clock::time_point start) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(options.seconds));
}

// -- cross-process phase (untraced) -------------------------------------------

Phase run_daemons(const Options& options, const std::filesystem::path& dir, bool untraced_layers,
                  CheckerProbe* self_test, std::vector<std::string>& violations) {
  Phase phase;
  fresh_dir(dir);
  const Expected initial = seeded_initial(options.seed);
  mca::net::ClusterConfig config;
  config.root = dir;
  for (std::size_t n = 0; n < kNodes.size(); ++n) {
    mca::net::ClusterNodeConfig node;
    node.id = kNodes[n];
    for (std::size_t c = 0; c < kClients; ++c) node.ints[key_of(c, n)] = initial[c][n];
    config.nodes.push_back(node);
  }
  mca::net::Cluster cluster(std::move(config));

  // The daemons' pids, for their file-write counters.
  std::vector<int> pids;
  for (const mca::NodeId n : kNodes) {
    const mca::RpcResult r = cluster.rpc().call(n, "ctl.ping", {});
    if (!r.ok()) throw std::runtime_error("transfer: node " + std::to_string(n) + " silent");
    mca::ByteBuffer in = mca::ByteBuffer::reader(r.payload);
    pids.push_back(static_cast<int>(in.unpack_u64()));
  }
  if (untraced_layers) {
    Samples ping;
    for (int i = 0; i < kPings; ++i) {
      const auto t0 = Clock::now();
      if (cluster.ping(kNodes[i % kNodes.size()], std::chrono::milliseconds(2'000))) {
        ping.add(micros_between(t0, Clock::now()));
      }
    }
    phase.layers["dist.ping_rtt_p50_us"] = {ping.percentile(0.50), "us"};
  }

  Samples apply_rtt;
  std::mutex apply_mutex;
  ClientOps ops;
  ops.transfer = [&](std::size_t, mca::NodeId coordinator, const std::vector<TransferLeg>& legs,
                     Window& w) {
    const auto t0 = Clock::now();
    const mca::net::ApplyResult r = cluster.apply(coordinator, legs);
    const auto t1 = Clock::now();
    ++w.attempted;
    if (!r.rpc_ok) {
      ++w.failed;
      throw std::runtime_error("ctl.apply at node " + std::to_string(coordinator) +
                               " went unanswered; its outcome is unknown");
    }
    if (!r.committed) {
      ++w.failed;
      return false;
    }
    ++w.actions;
    ++w.updates;
    w.update_us.add(micros_between(t0, t1));
    if (untraced_layers) {
      const std::scoped_lock lock(apply_mutex);
      apply_rtt.add(micros_between(t0, t1));
    }
    return true;
  };
  ops.peek = [&](std::size_t c, std::size_t n) { return cluster.peek(kNodes[n], key_of(c, n)); };

  Expected expected = initial;
  std::array<Window, kClients> windows{};
  std::mutex violations_mutex;
  run_clients(options, ops, kWarmupPerClient, {}, expected, windows, violations,
              violations_mutex);
  windows = {};
  apply_rtt = Samples{};

  const auto read_stats = [&] {
    std::map<std::string, std::uint64_t> sum;
    for (const mca::NodeId n : kNodes) {
      if (const auto s = cluster.stats(n)) {
        for (const auto& [name, value] : *s) sum[name] += value;
      }
    }
    return sum;
  };
  const auto written = [&] {
    std::uint64_t sum = 0;
    for (const int pid : pids) sum += written_bytes(pid);
    return sum;
  };
  const auto stats_before = untraced_layers ? read_stats() : std::map<std::string, std::uint64_t>{};
  const std::uint64_t bytes_before = written();
  phase.setup_s = seconds_since(options.process_start);
  const auto start = Clock::now();
  run_clients(options, ops, 0, deadline_after(options, start), expected, windows, violations,
              violations_mutex);
  phase.window.seconds = seconds_since(start);
  phase.disk_bytes = static_cast<double>(written() - bytes_before);
  for (const Window& w : windows) merge_window(phase.window, w);

  if (untraced_layers) {
    auto stats_after = read_stats();
    const auto delta = [&](const char* name) {
      return static_cast<double>(stats_after[name] - stats_before.at(name));
    };
    const auto updates = static_cast<double>(phase.window.updates);
    phase.layers["net.datagrams_per_update"] = {ratio(delta("sent"), updates), "count"};
    phase.layers["net.rx_datagrams_per_batch"] = {
        ratio(delta("reactor.rx_datagrams"), delta("reactor.rx_batches")), "count"};
    phase.layers["net.tx_datagrams_per_batch"] = {
        ratio(delta("tx_datagrams"), delta("tx_batches")), "count"};
    phase.layers["dist.rtt_p50_us.ctl.apply"] = {apply_rtt.percentile(0.50), "us"};
    phase.layers["dist.requests_per_update.ctl.apply"] = {
        ratio(static_cast<double>(phase.window.attempted - phase.window.read_us.size()), updates),
        "count"};
  }

  const Reader read = [&](std::size_t c, std::size_t n) {
    return cluster.peek(kNodes[n], key_of(c, n));
  };
  const std::int64_t initial_total = total(initial);
  const std::vector<std::string> found = check_values(read, expected, initial_total);
  violations.insert(violations.end(), found.begin(), found.end());
  if (self_test != nullptr) {
    self_test->with_truth = found;
    Expected one_more = expected;
    apply_legs(one_more, 0, legs_for(0, 0));
    self_test->with_one_extra_action = check_values(read, one_more, initial_total);
  }
  for (const mca::NodeId n : kNodes) {
    const auto report = cluster.check(n);
    if (!report) {
      violations.push_back("transfer: ctl.check on node " + std::to_string(n) + " unanswered");
    } else {
      for (const std::string& v : report->violations) {
        violations.push_back("transfer: node " + std::to_string(n) + ": " + v);
      }
    }
    const auto in_doubt = cluster.in_doubt(n);
    if (!in_doubt || *in_doubt != 0) {
      violations.push_back("transfer: node " + std::to_string(n) + " in doubt: " +
                           (in_doubt ? std::to_string(*in_doubt) : "unanswered"));
    }
  }
  cluster.shutdown_all();
  return phase;
}

// -- in-process phase (traced) ------------------------------------------------

Phase run_in_process(const Options& options, const std::filesystem::path& dir,
                     std::vector<std::string>& violations) {
  Phase phase;
  fresh_dir(dir);
  SpanLog spans(50'000);
  StoreProbe probe;
  probe.spans = &spans;
  const Expected initial = seeded_initial(options.seed);

  LocalCluster cluster(dir, {kNodes.begin(), kNodes.end()}, &probe, &spans);
  // ints[node][client], seeded one action each as the daemon seeds them.
  std::array<std::array<std::unique_ptr<mca::RecoverableInt>, kClients>, kNodes.size()> ints;
  for (std::size_t n = 0; n < kNodes.size(); ++n) {
    mca::DistNode& node = cluster.node(kNodes[n]);
    for (std::size_t c = 0; c < kClients; ++c) {
      ints[n][c] = std::make_unique<mca::RecoverableInt>(node.runtime(),
                                                          mca::apps::int_uid(key_of(c, n)));
      mca::AtomicAction seed(node.runtime());
      seed.begin();
      ints[n][c]->set(initial[c][n]);
      if (seed.commit() != mca::Outcome::Committed) {
        throw std::runtime_error("transfer: seeding did not commit");
      }
      node.host(*ints[n][c]);
    }
  }

  ClientOps ops;
  ops.transfer = [&](std::size_t c, mca::NodeId coordinator, const std::vector<TransferLeg>& legs,
                     Window& w) {
    mca::DistNode& coord = cluster.node(coordinator);
    mca::AtomicAction action(coord.runtime());
    return run_action(action, true, w, &spans, [&] {
      for (std::size_t n = 0; n < legs.size(); ++n) {
        if (legs[n].node == coordinator) {
          traced_call(&spans, "RecoverableInt.add", [&] { ints[n][c]->add(legs[n].delta); });
        } else {
          traced_call(&spans, "RemoteInt.add", [&] {
            mca::RemoteInt(coord, legs[n].node, mca::apps::int_uid(legs[n].key)).add(legs[n].delta);
          });
        }
      }
    });
  };
  // ctl.peek without the RPC: the durable value, read from the node's store.
  const auto peek = [&](std::size_t c, std::size_t n) -> std::optional<std::int64_t> {
    const auto state = cluster.store(kNodes[n]).read(mca::apps::int_uid(key_of(c, n)));
    if (!state) return std::nullopt;
    mca::ByteBuffer cursor = mca::ByteBuffer::reader(state->state());
    return cursor.unpack_i64();
  };
  ops.peek = peek;

  Expected expected = initial;
  std::array<Window, kClients> windows{};
  std::mutex violations_mutex;
  run_clients(options, ops, kWarmupPerClient, {}, expected, windows, violations,
              violations_mutex);
  windows = {};
  const LibraryCounters before = read_counters(cluster.runtimes(), cluster.wals(), cluster.nodes());
  probe.reset();
  cluster.traced_transport()->reset();
  spans.start();
  const auto start = Clock::now();
  run_clients(options, ops, 0, deadline_after(options, start), expected, windows, violations,
              violations_mutex);
  phase.window.seconds = seconds_since(start);
  const LibraryCounters after = read_counters(cluster.runtimes(), cluster.wals(), cluster.nodes());
  for (const Window& w : windows) merge_window(phase.window, w);
  add_library_layers(phase.layers, before, after, phase.window);
  add_store_layers(phase.layers, probe, phase.window);
  add_transport_layers(phase.layers, cluster.traced_transport()->totals(), phase.window);
  add_core_phases(phase.layers, phase.window);
  spans.write_csv(
      options.work_dir / "spans" / ("transfer-seed" + std::to_string(options.seed) + ".csv"),
      start);

  const std::vector<std::string> found =
      check_values(Reader(peek), expected, total(initial));
  violations.insert(violations.end(), found.begin(), found.end());
  for (const mca::NodeId n : kNodes) {
    mca::ConsistencyReport report;
    mca::consistency::check_node(cluster.node(n), report);
    for (const std::string& v : report.violations) {
      violations.push_back("transfer (in-process): node " + std::to_string(n) + ": " + v);
    }
    if (cluster.node(n).in_doubt_count() != 0) {
      violations.push_back("transfer (in-process): node " + std::to_string(n) + " in doubt");
    }
  }
  return phase;
}

}  // namespace

Outcome run_transfer(const Options& options, CheckerProbe* self_test) {
  Outcome outcome;
  const std::filesystem::path dir = options.work_dir / "transfer";
  // The cross-process phase's figures (ctl.stats, ctl.ping, ctl.apply) win
  // over the in-process phase's, which has no daemons and no ctl.apply.
  const Phase daemons = run_daemons(options, dir, options.trace, self_test, outcome.violations);
  std::optional<Phase> traced;
  if (options.trace) traced = run_in_process(options, dir, outcome.violations);
  add_phases(outcome, daemons, traced ? &*traced : nullptr);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return outcome;
}

}  // namespace commitbench
