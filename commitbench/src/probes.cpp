#include "probes.h"

#include <cstdio>
#include <set>

#include "dist/tpc.h"
#include "objects/state_manager.h"

namespace commitbench {
namespace {

// Span names must outlive the log; service names arrive as strings.
const char* intern(const std::string& name) {
  static std::mutex mutex;
  static std::set<std::string> names;
  const std::scoped_lock lock(mutex);
  return names.insert(name).first->c_str();
}

WriteClass classify(const mca::ObjectState& state, mca::WriteKind kind) {
  const std::string& type = state.type_name();
  if (type == mca::kCoordinatorLogType) return WriteClass::CoordinatorLog;
  if (type == mca::kPreparedMarkerType) return WriteClass::PreparedMarker;
  if (type == mca::StateManager::kDeltaRecordType) return WriteClass::DeltaChain;
  if (type.starts_with("__mca_")) return WriteClass::Other;
  return kind == mca::WriteKind::Shadow ? WriteClass::Shadow : WriteClass::ObjectImage;
}

// Frame bytes of one MUF1 datagram: magic, from, to, flags, service
// (length-prefixed), request id, payload (length-prefixed), checksum.
std::uint64_t frame_bytes(const mca::Datagram& d) {
  return 48 + d.service.size() + d.payload.size();
}

}  // namespace

// -- SpanLog ------------------------------------------------------------------

SpanLog::Buffer& SpanLog::local() {
  thread_local const SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(std::min<std::size_t>(cap_, 1 << 14));
    buffer = fresh.get();
    owner = this;
    const std::scoped_lock lock(mutex_);
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

void SpanLog::add(const char* name, const mca::Uid& action, Clock::time_point start,
                  Clock::time_point end) {
  if (!recording_.load(std::memory_order_relaxed)) return;
  Buffer& b = local();
  if (b.spans.size() < cap_) b.spans.push_back(Span{name, action, start, end});
}

std::size_t SpanLog::write_csv(const std::filesystem::path& path,
                               Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "name,action,start_us,end_us\n");
  std::size_t n = 0;
  const std::scoped_lock lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      std::fprintf(f, "%s,%s,%.3f,%.3f\n", s.name,
                   s.action.is_nil() ? "" : s.action.to_string().c_str(),
                   micros_between(origin, s.start), micros_between(origin, s.end));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

mca::Uid& current_action() {
  thread_local mca::Uid action = mca::Uid::nil();
  return action;
}

const char* write_class_name(WriteClass c) {
  switch (c) {
    case WriteClass::ObjectImage: return "object_image";
    case WriteClass::Shadow: return "shadow";
    case WriteClass::CoordinatorLog: return "coordinator_log";
    case WriteClass::PreparedMarker: return "prepared_marker";
    case WriteClass::DeltaChain: return "delta_chain";
    case WriteClass::Other: return "other";
    case WriteClass::Count: break;
  }
  return "?";
}

// -- TracedStore --------------------------------------------------------------

void StoreProbe::reset() {
  for (auto& w : writes) w.store(0);
  reads.store(0);
  busy_ns.store(0);
  const std::scoped_lock lock(mutex);
  write_wait_us = Samples{};
}

template <typename F>
auto TracedStore::timed(const char* name, F&& call) {
  const auto start = Clock::now();
  struct Record {
    StoreProbe& probe;
    const char* name;
    Clock::time_point start;
    ~Record() {
      const auto end = Clock::now();
      probe.busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()),
          std::memory_order_relaxed);
      {
        const std::scoped_lock lock(probe.mutex);
        probe.write_wait_us.add(micros_between(start, end));
      }
      if (probe.spans != nullptr) probe.spans->add(name, current_action(), start, end);
    }
  } record{probe_, name, start};
  return call();
}

std::optional<mca::ObjectState> TracedStore::read(const mca::Uid& uid) const {
  probe_.reads.fetch_add(1, std::memory_order_relaxed);
  return inner_.read(uid);
}

std::optional<mca::ObjectState> TracedStore::read_shadow(const mca::Uid& uid) const {
  probe_.reads.fetch_add(1, std::memory_order_relaxed);
  return inner_.read_shadow(uid);
}

std::vector<mca::Uid> TracedStore::uids() const { return inner_.uids(); }
std::vector<mca::Uid> TracedStore::shadow_uids() const { return inner_.shadow_uids(); }

void TracedStore::write(const mca::ObjectState& state) {
  probe_.writes[static_cast<std::size_t>(classify(state, mca::WriteKind::Committed))]++;
  timed("store.write", [&] { inner_.write(state); });
}

void TracedStore::write_shadow(const mca::ObjectState& state) {
  probe_.writes[static_cast<std::size_t>(classify(state, mca::WriteKind::Shadow))]++;
  timed("store.write_shadow", [&] { inner_.write_shadow(state); });
}

void TracedStore::write_batch(const std::vector<mca::ObjectState>& states, mca::WriteKind kind) {
  for (const mca::ObjectState& s : states) {
    probe_.writes[static_cast<std::size_t>(classify(s, kind))]++;
  }
  timed("store.write_batch", [&] { inner_.write_batch(states, kind); });
}

bool TracedStore::remove(const mca::Uid& uid) {
  return timed("store.remove", [&] { return inner_.remove(uid); });
}

bool TracedStore::commit_shadow(const mca::Uid& uid) {
  return timed("store.commit_shadow", [&] { return inner_.commit_shadow(uid); });
}

bool TracedStore::discard_shadow(const mca::Uid& uid) {
  return timed("store.discard_shadow", [&] { return inner_.discard_shadow(uid); });
}

// -- TracedTransport ----------------------------------------------------------

void TracedTransport::attach(mca::NodeId id, Handler handler) {
  inner_.attach(id, [this, handler = std::move(handler)](mca::Datagram d) {
    if (d.is_reply) on_delivery(d);
    handler(std::move(d));
  });
}

mca::SendStatus TracedTransport::send(mca::Datagram d) {
  {
    const std::scoped_lock lock(mutex_);
    ++totals_.datagrams;
    totals_.bytes += frame_bytes(d);
    if (!d.is_reply) {
      const auto [it, fresh] = in_flight_.try_emplace(
          Key{d.from, d.request_id}, InFlight{d.service, current_action(), Clock::now()});
      if (fresh) {
        ++totals_.requests[d.service];
      } else {
        ++totals_.retransmits;
      }
    }
  }
  return inner_.send(std::move(d));
}

void TracedTransport::on_delivery(const mca::Datagram& d) {
  const auto now = Clock::now();
  InFlight request;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = in_flight_.find(Key{d.to, d.request_id});
    if (it == in_flight_.end()) return;  // a duplicate reply
    request = std::move(it->second);
    in_flight_.erase(it);
    totals_.rtt_us[request.service].add(micros_between(request.sent, now));
  }
  if (spans_ != nullptr) spans_->add(intern(request.service), request.action, request.sent, now);
}

void TracedTransport::reset() {
  const std::scoped_lock lock(mutex_);
  totals_ = Totals{};
}

TracedTransport::Totals TracedTransport::totals() const {
  const std::scoped_lock lock(mutex_);
  return totals_;
}

}  // namespace commitbench
