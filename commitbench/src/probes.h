// Probes the traced run wraps around the library's public seams. Nothing
// here reaches inside a layer: each probe times and counts the calls that
// cross one interface.
//
//   TracedStore      an ObjectStore in front of a node's WalStore: calls per
//                    operation, writes by record kind, time inside each
//                    write-class call.
//   TracedTransport  a Transport in front of the UdpTransport: datagrams and
//                    frame bytes sent, requests per service, retransmits (a
//                    request id sent twice), and the round trip of every
//                    request from its first send to its reply's delivery.
//   SpanLog          spans (name, action id, start, end) kept in memory per
//                    thread and written out when the run ends.
#pragma once

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "net/transport.h"
#include "storage/object_store.h"

namespace commitbench {

class SpanLog {
 public:
  // Spans beyond `per_thread_cap` on one thread are not kept.
  explicit SpanLog(std::size_t per_thread_cap) : cap_(per_thread_cap) {}

  // Spans are kept from here on (the warm-up before it leaves none).
  void start() { recording_.store(true); }

  void add(const char* name, const mca::Uid& action, Clock::time_point start,
           Clock::time_point end);

  // One CSV line per span: name,action,start_us,end_us (relative to
  // `origin`). Returns the number of spans written.
  std::size_t write_csv(const std::filesystem::path& path, Clock::time_point origin) const;

 private:
  struct Span {
    const char* name;
    mca::Uid action;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();

  std::size_t cap_;
  mutable std::mutex mutex_;  // guards buffers_ (the list, not a thread's spans)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<bool> recording_{false};
};

// The action a benchmark client thread is running, so spans recorded on
// that thread (object calls, store calls made inline) carry its id. Threads
// of the library (RPC workers, the reactor) leave it nil.
mca::Uid& current_action();

enum class WriteClass : std::size_t {
  ObjectImage,     // committed image of an application object
  Shadow,          // prepared (shadow) image of an application object
  CoordinatorLog,  // coordinator-log record
  PreparedMarker,  // participant's prepared marker
  DeltaChain,      // commutative delta-chain record
  Other,           // witness records and anything else
  Count,
};
[[nodiscard]] const char* write_class_name(WriteClass c);

// Shared by every TracedStore of one run, so totals are per run.
struct StoreProbe {
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(WriteClass::Count)> writes{};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::mutex mutex;   // guards write_wait_us
  Samples write_wait_us;  // one sample per write-class call
  SpanLog* spans = nullptr;

  void reset();
};

class TracedStore final : public mca::ObjectStore {
 public:
  TracedStore(mca::ObjectStore& inner, StoreProbe& probe) : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::optional<mca::ObjectState> read(const mca::Uid& uid) const override;
  void write(const mca::ObjectState& state) override;
  bool remove(const mca::Uid& uid) override;
  [[nodiscard]] std::vector<mca::Uid> uids() const override;
  void write_batch(const std::vector<mca::ObjectState>& states, mca::WriteKind kind) override;
  void write_shadow(const mca::ObjectState& state) override;
  [[nodiscard]] std::optional<mca::ObjectState> read_shadow(const mca::Uid& uid) const override;
  bool commit_shadow(const mca::Uid& uid) override;
  bool discard_shadow(const mca::Uid& uid) override;
  [[nodiscard]] std::vector<mca::Uid> shadow_uids() const override;
  void crash() override { inner_.crash(); }
  void scavenge() override { inner_.scavenge(); }
  [[nodiscard]] mca::StorageClass storage_class() const override {
    return inner_.storage_class();
  }

 private:
  // Times one write-class call into the inner store.
  template <typename F>
  auto timed(const char* name, F&& call);

  mca::ObjectStore& inner_;
  StoreProbe& probe_;
};

class TracedTransport final : public mca::Transport {
 public:
  struct Totals {
    std::uint64_t datagrams = 0;
    std::uint64_t bytes = 0;
    std::uint64_t retransmits = 0;
    std::unordered_map<std::string, std::uint64_t> requests;  // first sends per service
    std::unordered_map<std::string, Samples> rtt_us;          // per service
  };

  TracedTransport(mca::Transport& inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  void attach(mca::NodeId id, Handler handler) override;
  void detach(mca::NodeId id) override { inner_.detach(id); }
  mca::SendStatus send(mca::Datagram d) override;
  void set_up(mca::NodeId id, bool up) override { inner_.set_up(id, up); }
  [[nodiscard]] bool is_up(mca::NodeId id) const override { return inner_.is_up(id); }

  // Starts a fresh count (requests still in flight keep their send time).
  void reset();
  [[nodiscard]] Totals totals() const;

 private:
  struct InFlight {
    std::string service;
    mca::Uid action;  // the sending thread's action, when it runs one
    Clock::time_point sent;
  };
  // A request is named by its sender and its id.
  struct Key {
    mca::NodeId from;
    mca::Uid id;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<mca::Uid>{}(k.id) * 31 + k.from;
    }
  };

  void on_delivery(const mca::Datagram& d);

  mca::Transport& inner_;
  SpanLog* spans_;
  mutable std::mutex mutex_;  // everything below
  Totals totals_;
  std::unordered_map<Key, InFlight, KeyHash> in_flight_;
};

}  // namespace commitbench
