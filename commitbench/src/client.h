// The client side of every workload: one action, timed from begin to the
// end of commit, with the spans of the traced run around it.
#pragma once

#include <exception>

#include "bench.h"
#include "core/atomic_action.h"
#include "probes.h"

namespace commitbench {

// Times `call` (one object call) as a span of the current action.
template <typename F>
auto traced_call(SpanLog* spans, const char* name, F&& call) {
  if (spans == nullptr) return call();
  const auto start = Clock::now();
  struct Record {
    SpanLog* spans;
    const char* name;
    Clock::time_point start;
    ~Record() { spans->add(name, current_action(), start, Clock::now()); }
  } record{spans, name, start};
  return call();
}

// begin; work(); commit — recorded into `w` as one attempted operation. An
// action that throws or does not commit is aborted and counted as failed.
// With `spans`, an update's work phase (begin -> last object call returned)
// and commit phase (inside commit()) are recorded too.
template <typename Work>
bool run_action(mca::AtomicAction& action, bool update, Window& w, SpanLog* spans, Work&& work) {
  const auto start = Clock::now();
  current_action() = action.uid();
  auto work_done = start;
  bool committed = false;
  try {
    action.begin();
    work();
    work_done = Clock::now();
    committed = action.commit() == mca::Outcome::Committed;
  } catch (const std::exception&) {
    if (action.status() == mca::ActionStatus::Running) action.abort();
  }
  const auto end = Clock::now();
  current_action() = mca::Uid::nil();
  ++w.attempted;
  if (!committed) {
    ++w.failed;
    return false;
  }
  ++w.actions;
  if (update) {
    ++w.updates;
    w.update_us.add(micros_between(start, end));
  } else {
    w.read_us.add(micros_between(start, end));
  }
  if (spans != nullptr) {
    spans->add("action", action.uid(), start, end);
    spans->add("action.work", action.uid(), start, work_done);
    spans->add("action.commit", action.uid(), work_done, end);
    if (update) {
      w.work_us.add(micros_between(start, work_done));
      w.commit_us.add(micros_between(work_done, end));
    }
  }
  return true;
}

}  // namespace commitbench
