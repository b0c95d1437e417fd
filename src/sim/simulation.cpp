#include "condorg/sim/simulation.h"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "condorg/sim/invariant_auditor.h"
#include "condorg/sim/schedule_controller.h"
#include "condorg/util/logging.h"

namespace condorg::sim {
namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr Time kInfTime = std::numeric_limits<Time>::infinity();

// Referenced only from CONDORG_LOG_TRACE sites; the discarded-if-constexpr
// branch still names it, so it needs no preprocessor guard of its own.
[[maybe_unused]] const util::Logger& kernel_logger() {
  static const util::Logger logger("sim");
  return logger;
}

std::uint64_t fnv1a_mix(std::uint64_t digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (byte * 8)) & 0xff;
    digest *= kFnvPrime;
  }
  return digest;
}

std::uint64_t time_bits(Time when) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(when));
  std::memcpy(&bits, &when, sizeof(bits));
  return bits;
}

// Calendar key for a timestamp: its bit pattern, with -0.0 folded into +0.0
// so numerically-equal times land in the same bucket (otherwise two heap
// entries could tie on `when` and the FIFO order across them would be
// unspecified). The PendingEvent still carries `when` verbatim — the digest
// sees exactly the bits that were scheduled.
std::uint64_t bucket_key(Time when) {
  if (when == 0.0) when = 0.0;  // normalize -0.0
  return time_bits(when);
}
}  // namespace

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() = default;

void Simulation::attach_auditor(InvariantAuditor* auditor,
                                std::uint64_t period) {
  auditor_ = auditor;
  audit_period_ = period > 0 ? period : 1;
}

// 4-ary min-heap on `when`, hand-sifted with a hole instead of
// std::push_heap/pop_heap swaps: half the depth of a binary heap and one
// move per level. It only orders *distinct* timestamps (one bucket each), so
// ties are impossible and any correct heap yields the same dispatch stream.
void Simulation::heap_push(BucketRef node) {
  std::size_t i = heap_.size();
  heap_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!heap_[parent].after(node)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Simulation::heap_pop_front() {
  const BucketRef last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[best].after(heap_[c])) best = c;
      }
      if (!last.after(heap_[best])) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
}

void Simulation::drop_stale_front() {
  while (!heap_.empty()) {
    Bucket& b = buckets_[heap_.front().bucket];
    const std::size_t size = b.items.size();
    std::size_t next = b.next;
    while (next < size && slots_[b.items[next].slot].gen != b.items[next].gen) {
      ++next;
    }
    // Every entry skipped here is a drained cancellation tombstone (the
    // only way an entry at the cursor goes stale): settle the account.
    tombstones_ -= next - b.next;
    b.next = next;
    if (next < size) return;  // front bucket has a live event at its cursor
    // Fully drained: retire the bucket (keeping its capacity for reuse).
    bucket_of_.erase(b.key);
    b.items.clear();
    b.next = 0;
    free_buckets_.push_back(heap_.front().bucket);
    heap_pop_front();
  }
}

Simulation::EventRecord* Simulation::record_for(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return nullptr;
  EventRecord& rec = slots_[static_cast<std::size_t>(hi - 1)];
  if (rec.gen != static_cast<std::uint32_t>(id) || !rec.fn) return nullptr;
  return &rec;
}

EventId Simulation::schedule_at(Time when, std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("schedule_at: null callback");
  if (when < now_) when = now_;  // no scheduling into the past
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  EventRecord& rec = slots_[slot];
  rec.fn = std::move(fn);
  rec.cause = tracer_.enabled() ? tracer_.context() : 0;
  const std::uint32_t gen = rec.gen;

  const std::uint64_t key = bucket_key(when);
  const auto [it, inserted] = bucket_of_.try_emplace(key, 0);
  std::uint32_t bi;
  if (inserted) {
    if (free_buckets_.empty()) {
      bi = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      bi = free_buckets_.back();
      free_buckets_.pop_back();
    }
    buckets_[bi].key = key;
    it->second = bi;
    heap_push(BucketRef{when, bi});
  } else {
    bi = it->second;
  }
  buckets_[bi].items.push_back(PendingEvent{when, ++seq_, slot, gen});
  ++live_;
  return (static_cast<EventId>(slot) + 1) << 32 | gen;
}

bool Simulation::cancel(EventId id) {
  EventRecord* rec = record_for(id);
  if (rec == nullptr) return false;
  rec->fn = nullptr;
  ++rec->gen;  // invalidates the pending entry and any outstanding id copy
  free_slots_.push_back(static_cast<std::uint32_t>(rec - slots_.data()));
  --live_;
  ++tombstones_;  // buried entry; settled when the lazy deletion drains it
  return true;
}

void Simulation::dispatch(const PendingEvent& ev) {
  EventRecord& rec = slots_[ev.slot];
  // Move the handler out and retire the slot before invoking: the callback
  // may schedule (reusing this slot under a fresh generation) or cancel
  // other events.
  std::function<void()> fn = std::move(rec.fn);
  const RecordId cause = rec.cause;
  rec.fn = nullptr;
  rec.cause = 0;
  ++rec.gen;
  free_slots_.push_back(ev.slot);
  --live_;
  now_ = ev.when;
  CONDORG_LOG_TRACE(kernel_logger(), "dispatch t=", ev.when, " seq=", ev.seq);
  ++dispatched_;
  trace_digest_ =
      fnv1a_mix(fnv1a_mix(trace_digest_, time_bits(ev.when)), ev.seq);
  if (tracer_.enabled()) {
    // Re-install the causal cursor captured when this event was scheduled:
    // records emitted by the callback chain off the record that caused it.
    Tracer::ScopedContext tracer_context(tracer_, cause);
    fn();
  } else {
    fn();
  }
  // Audit after the callback returns: between events every daemon's state is
  // quiescent, so cross-daemon invariants are meaningful.
  if (auditor_ != nullptr && dispatched_ % audit_period_ == 0) {
    auditor_->run(now_);
  }
}

Simulation::PendingEvent Simulation::take_front_event() {
  Bucket& b = buckets_[heap_.front().bucket];
  if (controller_ == nullptr) return b.items[b.next++];
  // Exploration mode: let the controller pick among the bucket's live
  // entries. drop_stale_front() guarantees the cursor entry is live, so
  // there is always at least one candidate.
  pick_candidates_.clear();
  const std::size_t size = b.items.size();
  for (std::size_t i = b.next; i < size; ++i) {
    const PendingEvent& e = b.items[i];
    if (slots_[e.slot].gen == e.gen) pick_candidates_.push_back(i);
  }
  std::size_t pick = 0;
  if (pick_candidates_.size() > 1) {
    pick = controller_->pick_event(heap_.front().when,
                                   pick_candidates_.size()) %
           pick_candidates_.size();
  }
  const std::size_t index = pick_candidates_[pick];
  const PendingEvent ev = b.items[index];
  if (index == b.next) {
    ++b.next;
  } else {
    // Out-of-FIFO pick: remove from the middle so no entry dispatches
    // twice. O(bucket) — acceptable for exploration runs only.
    b.items.erase(b.items.begin() + static_cast<std::ptrdiff_t>(index));
  }
  return ev;
}

void Simulation::run_loop(Time until, bool bounded) {
  stopped_ = false;
  while (!stopped_) {
    drop_stale_front();
    if (heap_.empty()) break;
    if (bounded && heap_.front().when > until) break;
    // Copy the entry out before dispatch: the callback may append to this
    // bucket (vector reallocation) or grow the bucket slab.
    const PendingEvent ev = take_front_event();
    dispatch(ev);
  }
  if (bounded) {
    if (!stopped_ && now_ < until) now_ = until;
    // Drop cancelled stragglers at the front so pending() stays meaningful.
    drop_stale_front();
  }
}

void Simulation::run() { run_loop(kInfTime, false); }

bool Simulation::run_until(Time until) {
  run_loop(until, true);
  return live_ != 0;
}

}  // namespace condorg::sim
