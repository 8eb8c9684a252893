#include "local_cluster.h"

#include <stdexcept>
#include <string>

#include "net/cluster.h"

namespace commitbench {

LocalCluster::LocalCluster(const std::filesystem::path& dir, const std::vector<mca::NodeId>& ids,
                           StoreProbe* probe, SpanLog* spans) {
  mca::UdpTransportConfig config;
  for (const mca::NodeId id : ids) {
    const std::uint16_t port = mca::net::pick_free_udp_port();
    if (port == 0) throw std::runtime_error("no free loopback UDP port");
    config.peers[id] = mca::UdpAddress{"127.0.0.1", port};
  }
  udp_ = std::make_unique<mca::UdpTransport>(std::move(config));
  if (probe != nullptr) traced_ = std::make_unique<TracedTransport>(*udp_, spans);
  mca::Transport& transport =
      traced_ ? static_cast<mca::Transport&>(*traced_) : static_cast<mca::Transport&>(*udp_);

  members_.reserve(ids.size());
  for (const mca::NodeId id : ids) {
    Member m;
    m.id = id;
    m.wal = std::make_unique<mca::WalStore>(dir / ("node" + std::to_string(id)));
    if (probe != nullptr) m.traced = std::make_unique<TracedStore>(*m.wal, *probe);
    mca::ObjectStore* store =
        m.traced ? static_cast<mca::ObjectStore*>(m.traced.get()) : m.wal.get();
    m.node = std::make_unique<mca::DistNode>(transport, id, store);
    // The daemon's deadlines (apps/mcad/daemon.h), so in-process and
    // cross-process nodes behave alike.
    m.node->set_invoke_timeout(std::chrono::milliseconds(4'000));
    m.node->set_tpc_call_timeout(std::chrono::milliseconds(1'000));
    members_.push_back(std::move(m));
  }
}

LocalCluster::~LocalCluster() {
  // Nodes stop their RPC endpoints before any store or the transport goes.
  for (Member& m : members_) m.node.reset();
}

LocalCluster::Member& LocalCluster::member(mca::NodeId id) {
  for (Member& m : members_) {
    if (m.id == id) return m;
  }
  throw std::invalid_argument("no node " + std::to_string(id));
}

mca::DistNode& LocalCluster::node(mca::NodeId id) { return *member(id).node; }

mca::ObjectStore& LocalCluster::store(mca::NodeId id) {
  Member& m = member(id);
  return m.traced ? static_cast<mca::ObjectStore&>(*m.traced) : *m.wal;
}

std::vector<mca::Runtime*> LocalCluster::runtimes() {
  std::vector<mca::Runtime*> out;
  for (Member& m : members_) out.push_back(&m.node->runtime());
  return out;
}

std::vector<mca::WalStore*> LocalCluster::wals() {
  std::vector<mca::WalStore*> out;
  for (Member& m : members_) out.push_back(m.wal.get());
  return out;
}

std::vector<mca::DistNode*> LocalCluster::nodes() {
  std::vector<mca::DistNode*> out;
  for (Member& m : members_) out.push_back(m.node.get());
  return out;
}

}  // namespace commitbench
