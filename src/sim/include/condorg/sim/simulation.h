// Discrete-event simulation kernel.
//
// A Simulation owns a priority queue of timestamped callbacks and a
// monotonically advancing clock. Everything in the reproduction — protocol
// timeouts, job runtimes, crashes, probes — is an event in this queue, which
// is what makes week-long grid campaigns runnable in milliseconds and every
// run exactly reproducible from its seed.
//
// There is one calendar queue and one thread: events are totally ordered by
// (when, seq), where seq is a per-Simulation scheduling counter, so equal
// timestamps dispatch in FIFO order. The FNV trace digest folds that stream
// and is what every test, bench baseline and the Explorer's recorded
// schedules pin. Crash isolation between simulated hosts is a property of
// the protocols (epoch-fenced Host::post, DetSan's HostLocal ownership
// checks), not of the executor.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "condorg/sim/profiler.h"
#include "condorg/sim/tracer.h"
#include "condorg/sim/types.h"
#include "condorg/util/metrics.h"
#include "condorg/util/rng.h"

namespace condorg::sim {

class InvariantAuditor;
class ScheduleController;

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time: the timestamp of the event being dispatched,
  /// or, between runs, where the last run left the clock.
  Time now() const { return now_; }

  /// Schedule a callback at an absolute time (>= now). Events with equal
  /// timestamps dispatch in FIFO (scheduling) order — this tie-break is part
  /// of the kernel's contract and is pinned by tests: protocol layers rely
  /// on "schedule A then B at time t => A runs before B".
  EventId schedule_at(Time when, std::function<void()> fn);

  /// Schedule a callback after a delay (>= 0).
  EventId schedule_in(Time delay, std::function<void()> fn) {
    // Pass through untouched: schedule_at rejects null callbacks, and
    // conditionally moving here (`fn ? std::move(fn) : nullptr`) reads fn's
    // state in one operand while the other moves it out — the moved-from
    // pattern the determinism lint exists to keep out of the kernel.
    return schedule_at(now() + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Run until the event queue is empty or stop() is called.
  void run();

  /// Run events with timestamp <= until; afterwards now() == until unless the
  /// queue emptied earlier or stop() was called. Returns true if events
  /// remain pending.
  bool run_until(Time until);

  /// Request the active run()/run_until() loop to return after the event
  /// being dispatched.
  void stop() { stopped_ = true; }

  /// Number of events dispatched so far (for micro-benchmarks / debugging).
  std::uint64_t dispatched() const { return dispatched_; }
  /// Live (non-cancelled) pending events.
  std::size_t pending() const { return live_; }
  /// Cancelled entries still buried in the calendar. Exact: it rises on
  /// cancel and falls as the lazy deletion drains the entry.
  std::uint64_t tombstones() const { return tombstones_; }

  /// Master RNG; prefer make_rng() for per-component streams.
  util::Rng& rng() { return rng_; }

  /// Deterministic per-component stream derived from the master seed.
  util::Rng make_rng(std::string_view label) const { return rng_.split(label); }

  /// Rolling FNV-1a hash over every dispatched (time, seq) pair in dispatch
  /// order — a digest of the run's event order. Two runs of the same
  /// scenario from the same seed must produce identical digests; a mismatch
  /// is the determinism self-check's proof that hidden state (wall clock,
  /// unordered iteration, ambient RNG) leaked into scheduling.
  std::uint64_t trace_digest() const { return trace_digest_; }

  /// Attach an invariant auditor: dispatch runs its checks between events,
  /// every `period` dispatches (the world is quiescent there — no callback
  /// is mid-flight). Pass nullptr to detach. The auditor must outlive the
  /// attachment.
  void attach_auditor(InvariantAuditor* auditor, std::uint64_t period = 1024);
  InvariantAuditor* auditor() const { return auditor_; }

  /// Attach a schedule controller (see schedule_controller.h): it then picks
  /// which live event dispatches whenever a timestamp bucket holds more than
  /// one, and Host::crash_point / Network delivery quantization consult it.
  /// Pass nullptr to detach; with none attached, dispatch is plain FIFO and
  /// the trace digest is byte-identical to an uncontrolled run. The
  /// controller must outlive the attachment.
  void set_controller(ScheduleController* controller) {
    controller_ = controller;
  }
  ScheduleController* controller() const { return controller_; }

  /// Metric registry shared by every daemon in this world. Per-Simulation
  /// (not global) so scenarios run back-to-back stay isolated.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  /// Distributed-trace recorder (disabled until Tracer::set_enabled).
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Kernel profiler (disabled until Profiler::set_enabled; sim::World arms
  /// it from CONDORG_PROFILE). Hooked at Network delivery and Host::post.
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

 private:
  // Event storage is a slab of reusable records addressed by a 32-bit slot
  // index; an EventId packs (slot + 1) in the high 32 bits and the slot's
  // generation in the low 32 (so 0 stays kInvalidEvent). Cancellation just
  // bumps the slot's generation — O(1), no queue surgery — and the pending
  // entry left behind is lazily discarded when its bucket drains (its
  // generation no longer matches); tombstones_ tracks how many such entries
  // are still buried.
  //
  // The pending set is a calendar of per-timestamp FIFO buckets with a
  // min-heap over the *distinct* timestamps only. Simulated time is heavily
  // tied (timeout grids, periodic cycles, same-tick protocol rounds), so the
  // heap stays tiny and a dispatch is usually "advance the front bucket's
  // cursor" rather than an O(log n_events) sift over megabytes of nodes.
  // Dispatch order is exactly (when, seq): bucket entries are appended in
  // seq order, and the heap orders distinct times.
  struct PendingEvent {
    Time when;           // verbatim as scheduled (digest input)
    std::uint64_t seq;   // FIFO tiebreaker + digest input
    std::uint32_t slot;  // slab index
    std::uint32_t gen;   // generation at scheduling time
  };
  struct Bucket {
    std::uint64_t key = 0;             // normalized bit pattern of `when`
    std::size_t next = 0;              // drain cursor into items
    std::vector<PendingEvent> items;   // seq-ascending
  };
  struct BucketRef {
    Time when;
    std::uint32_t bucket;
    // Strict: at most one live bucket per timestamp, so ties are impossible.
    bool after(const BucketRef& other) const { return when > other.when; }
  };
  struct EventRecord {
    std::function<void()> fn;  // non-null iff live
    std::uint32_t gen = 1;
    // Tracer causal cursor snapshotted at scheduling time (0 when tracing
    // is off). dispatch() re-installs it around fn() so records emitted by
    // the callback point at the record that caused the event — across
    // Host::post timers, Network deliveries, and crash/boot callbacks
    // alike, since they all funnel through schedule_at. Lives in the slab
    // (not PendingEvent) to keep the calendar buckets compact.
    RecordId cause = 0;
  };

  /// The slab record for a live event id; nullptr for stale/unknown ids.
  EventRecord* record_for(EventId id);

  void dispatch(const PendingEvent& ev);
  /// Remove the next event from the front bucket. FIFO (cursor) order
  /// normally; with a controller attached, the controller picks among the
  /// bucket's live entries. Requires drop_stale_front() to have run.
  PendingEvent take_front_event();
  /// Advance front buckets past cancelled entries; release drained buckets.
  /// Afterwards the heap front (if any) has a live event at its cursor.
  void drop_stale_front();
  void heap_push(BucketRef node);
  void heap_pop_front();

  void run_loop(Time until, bool bounded);

  std::vector<BucketRef> heap_;        // min-heap over distinct timestamps
  std::vector<Bucket> buckets_;        // bucket slab; index = BucketRef::bucket
  std::vector<std::uint32_t> free_buckets_;  // recycled buckets (keep caps)
  std::unordered_map<std::uint64_t, std::uint32_t> bucket_of_;  // key → index
  std::vector<EventRecord> slots_;     // slab; index = PendingEvent::slot
  std::vector<std::uint32_t> free_slots_;    // recycled slab slots (LIFO)
  std::vector<std::size_t> pick_candidates_;  // scratch for take_front_event
  std::size_t live_ = 0;               // live (non-cancelled) pending events
  std::uint64_t tombstones_ = 0;       // cancelled entries awaiting drain
  std::uint64_t seq_ = 0;              // last assigned scheduling counter
  Time now_ = 0.0;

  bool stopped_ = false;
  std::uint64_t dispatched_ = 0;
  util::Rng rng_;
  std::uint64_t trace_digest_ = 14695981039346656037ull;  // FNV-1a basis
  ScheduleController* controller_ = nullptr;
  InvariantAuditor* auditor_ = nullptr;
  std::uint64_t audit_period_ = 1024;
  util::MetricsRegistry metrics_;
  Tracer tracer_{*this};
  Profiler profiler_;
};

}  // namespace condorg::sim
