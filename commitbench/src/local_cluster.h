// Several DistNodes in this process, each on its own on-disk WalStore in
// `dir`/node<id>, all over one loopback UdpTransport. With probes, a
// TracedTransport sits in front of the transport and a TracedStore in front
// of every WalStore.
#pragma once

#include <filesystem>
#include <memory>
#include <vector>

#include "core/runtime.h"
#include "dist/node.h"
#include "net/udp_transport.h"
#include "probes.h"

namespace commitbench {

class LocalCluster {
 public:
  // `probe`/`spans` null = untraced.
  LocalCluster(const std::filesystem::path& dir, const std::vector<mca::NodeId>& ids,
               StoreProbe* probe, SpanLog* spans);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  [[nodiscard]] mca::DistNode& node(mca::NodeId id);
  [[nodiscard]] mca::ObjectStore& store(mca::NodeId id);  // what the node writes through
  [[nodiscard]] mca::UdpTransport& udp() { return *udp_; }
  [[nodiscard]] TracedTransport* traced_transport() { return traced_.get(); }

  [[nodiscard]] std::vector<mca::Runtime*> runtimes();
  [[nodiscard]] std::vector<mca::WalStore*> wals();
  [[nodiscard]] std::vector<mca::DistNode*> nodes();

 private:
  struct Member {
    mca::NodeId id = 0;
    std::unique_ptr<mca::WalStore> wal;
    std::unique_ptr<TracedStore> traced;
    std::unique_ptr<mca::DistNode> node;  // destroyed before its stores
  };
  Member& member(mca::NodeId id);

  std::unique_ptr<mca::UdpTransport> udp_;
  std::unique_ptr<TracedTransport> traced_;
  std::vector<Member> members_;  // destroyed before the transport
};

}  // namespace commitbench
