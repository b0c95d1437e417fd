#include "condorg/condor/pool_negotiator.h"

#include <algorithm>
#include <set>
#include <utility>

namespace condorg::condor {

PoolNegotiator::PoolNegotiator(sim::Host& host, sim::Network& network,
                               Collector& collector, Options options)
    : host_(host),
      collector_(collector),
      options_(std::move(options)),
      rpc_(host, network, kService),
      mirror_(host, "pool_negotiator.mirror"),
      holds_(host, "pool_negotiator.holds"),
      last_seq_(host, "pool_negotiator.last_seq", 0),
      fair_share_(host, "pool_negotiator.fair_share", options_.fair_share),
      matched_by_user_(host, "pool_negotiator.matched_by_user"),
      violations_(host, "pool_negotiator.violations"),
      cycles_(host, "pool_negotiator.cycles", 0),
      matches_(host, "pool_negotiator.matches", 0),
      skipped_cycles_(host, "pool_negotiator.skipped_cycles", 0),
      full_resyncs_(host, "pool_negotiator.full_resyncs", 0),
      sweeps_(host, "pool_negotiator.sweeps", 0),
      divergences_(host, "pool_negotiator.divergences", 0),
      cycles_counter_(host.metrics().counter("pool_negotiator.cycles",
                                             {{"host", host.name()}})),
      matches_counter_(host.metrics().counter("pool_negotiator.matches",
                                              {{"host", host.name()}})),
      skipped_counter_(host.metrics().counter("pool_negotiator.skipped_cycles",
                                              {{"host", host.name()}})),
      divergence_counter_(host.metrics().counter(
          "pool_negotiator.divergences", {{"host", host.name()}})) {
  boot_id_ = host_.add_boot([this] {
    if (started_) cycle();
  });
  crash_listener_ = host_.add_crash_listener([this] {
    // The mirror is volatile; the colocated Collector resets its sequence
    // in the same crash, so the first post-boot cycle resyncs cleanly.
    mirror_->clear();
    holds_->clear();
    *last_seq_ = 0;
  });
}

PoolNegotiator::~PoolNegotiator() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
}

void PoolNegotiator::start() {
  if (started_) return;
  started_ = true;
  cycle();
}

void PoolNegotiator::cycle() {
  negotiate_once();
  host_.post(options_.cycle_period, [this] { cycle(); });
}

bool PoolNegotiator::classify_job(const classad::ClassAd& ad,
                                  std::string& user) {
  if (!ad.eval_string("JobUniverse")) return false;
  user = ad.eval_string("User").value_or("unknown");
  return true;
}

bool PoolNegotiator::slot_eligible(const MirrorEntry& entry,
                                   double now) const {
  if (entry.is_job) return false;
  if (entry.hold_until > now) return false;  // claim in flight
  const classad::Value v =
      unclaimed_slot_constraint()->evaluate(entry.ad.get(), nullptr);
  return v.is_bool() && v.as_bool();
}

bool PoolNegotiator::job_pending(const MirrorEntry& entry, double now) const {
  return entry.is_job && !(entry.hold_until > now);
}

void PoolNegotiator::resync() {
  // Holds are negotiator-local state the Collector knows nothing about;
  // carry live ones across the rebuild (dropping holds on ads the
  // Collector no longer has).
  const std::map<std::string, double> holds = *holds_;
  holds_->clear();
  mirror_->clear();
  for (const auto& [name, checksum] : collector_.checksums()) {
    const Collector::AdPtr ad = collector_.lookup(name);
    if (!ad) continue;
    MirrorEntry entry;
    entry.ad = ad;
    entry.checksum = checksum;
    entry.is_job = classify_job(*ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    const auto hold = holds.find(name);
    if (hold != holds.end()) {
      entry.hold_until = hold->second;
      (*holds_)[name] = hold->second;
    }
    (*mirror_)[name] = std::move(entry);
  }
  *last_seq_ = collector_.change_seq();
}

std::vector<std::string> PoolNegotiator::ingest_deltas(bool& resynced) {
  std::vector<std::string> changed;
  std::vector<Collector::Delta> deltas;
  if (!collector_.query_delta(*last_seq_, deltas)) {
    resync();
    resynced = true;
    ++*full_resyncs_;
    return changed;
  }
  for (Collector::Delta& delta : deltas) {
    changed.push_back(delta.name);
    if (!delta.ad) {
      mirror_->erase(delta.name);
      holds_->erase(delta.name);
      continue;
    }
    MirrorEntry entry;
    entry.ad = std::move(delta.ad);
    entry.checksum = delta.checksum;
    entry.is_job = classify_job(*entry.ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    // Replacement clears any hold: a changed ad re-enters negotiation.
    (*mirror_)[delta.name] = std::move(entry);
    holds_->erase(delta.name);
  }
  if (!deltas.empty()) *last_seq_ = deltas.back().seq;
  return changed;
}

std::vector<PoolNegotiator::Candidate> PoolNegotiator::eligible_slots(
    const std::vector<std::string>& changed, bool all_changed,
    double now) const {
  std::vector<Candidate> out;
  for (const auto& [name, entry] : *mirror_) {
    if (entry.is_job || !slot_eligible(entry, now)) continue;
    Candidate candidate;
    candidate.name = &name;
    candidate.entry = &entry;
    candidate.changed =
        all_changed ||
        std::binary_search(changed.begin(), changed.end(), name);
    out.push_back(candidate);
  }
  return out;
}

std::vector<PoolNegotiator::Candidate> PoolNegotiator::ordered_pending_jobs(
    const std::vector<std::string>& changed, bool all_changed, double now) {
  // Mirror order gives name order within each user; the fair-share table
  // decides the cross-user order.
  std::map<std::string, std::vector<Candidate>> by_user;
  for (const auto& [name, entry] : *mirror_) {
    if (!job_pending(entry, now)) continue;
    fair_share_->note_user(entry.user);
    Candidate candidate;
    candidate.name = &name;
    candidate.entry = &entry;
    candidate.changed =
        all_changed ||
        std::binary_search(changed.begin(), changed.end(), name);
    by_user[entry.user].push_back(candidate);
  }
  std::vector<Candidate> out;
  for (const std::string& user : fair_share_->priority_order(now)) {
    const auto it = by_user.find(user);
    if (it == by_user.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<Match> PoolNegotiator::match_candidates(
    const std::vector<Candidate>& jobs, const std::vector<Candidate>& slots,
    bool everything_changed) const {
  std::vector<Match> matches;
  std::vector<bool> used(slots.size(), false);
  std::size_t slots_left = slots.size();
  // Clean jobs only ever consider slots that changed this cycle, and at
  // steady state that set is tiny while the pending-job list is not —
  // precompute the changed-slot index list once instead of skip-scanning
  // the full slot vector per clean job.
  std::vector<std::size_t> changed_slots;
  if (!everything_changed) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].changed) changed_slots.push_back(i);
    }
  }
  for (const Candidate& job : jobs) {
    if (slots_left == 0) break;
    // A dirty job retries the whole pool; a clean one only what changed —
    // it already failed against everything else while both sides were
    // unchanged (the invariant the anti-entropy sweep enforces).
    const bool dirty = everything_changed || job.changed;
    std::size_t best = slots.size();
    double best_rank = 0;
    const auto consider = [&](std::size_t i) {
      if (used[i]) return;
      const classad::ClassAd& slot_ad = *slots[i].entry->ad;
      if (!classad::symmetric_match(*job.entry->ad, slot_ad)) return;
      const double rank = classad::eval_rank(*job.entry->ad, slot_ad);
      if (best == slots.size() || rank > best_rank) {
        best = i;
        best_rank = rank;
      }
    };
    if (dirty) {
      for (std::size_t i = 0; i < slots.size(); ++i) consider(i);
    } else {
      for (const std::size_t i : changed_slots) consider(i);
    }
    if (best < slots.size()) {
      used[best] = true;
      --slots_left;
      matches.push_back(Match{*job.name, *slots[best].entry->ad});
    }
  }
  return matches;
}

void PoolNegotiator::record_violation(const std::string& text) {
  ++*divergences_;
  divergence_counter_.inc();
  if (violations_->size() < 32) violations_->push_back(text);
}

void PoolNegotiator::run_sweep(const std::vector<Match>& delta_matches,
                               const std::vector<Candidate>& jobs,
                               const std::vector<Candidate>& slots) {
  ++*sweeps_;

  // The retained full-requery reference path, timed as one unit: re-read
  // the pool the way the pre-delta negotiator did, list the jobs (shared
  // ads, no copies), run the full-scan matcher.
  const std::uint64_t t0 = clock_ ? clock_() : 0;
  const std::vector<Collector::AdPtr> requeried =
      collector_.query(unclaimed_slot_constraint());
  (void)requeried;
  std::vector<IdleJob> reference_jobs;
  reference_jobs.reserve(jobs.size());
  for (const Candidate& job : jobs) {
    reference_jobs.push_back(IdleJob{*job.name, job.entry->ad});
  }
  std::vector<Collector::AdPtr> reference_slots;
  reference_slots.reserve(slots.size());
  for (const Candidate& slot : slots) {
    reference_slots.push_back(slot.entry->ad);
  }
  const std::vector<Match> reference =
      match_jobs_to_slots_reference(reference_jobs, reference_slots);
  if (clock_) reference_cycle_ns_.push_back(clock_() - t0);

  // Matcher equivalence: the delta-restricted greedy pass must produce
  // exactly what the full scan produces on the same state.
  if (reference.size() != delta_matches.size()) {
    record_violation("pool_negotiator/match-equivalence: delta made " +
                     std::to_string(delta_matches.size()) +
                     " matches, reference made " +
                     std::to_string(reference.size()));
  } else {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto ref_slot = reference[i].slot_ad.eval_string("Name");
      const auto delta_slot = delta_matches[i].slot_ad.eval_string("Name");
      if (reference[i].job_id != delta_matches[i].job_id ||
          ref_slot != delta_slot) {
        record_violation(
            "pool_negotiator/match-equivalence: pair " + std::to_string(i) +
            " differs: delta=(" + delta_matches[i].job_id + "," +
            delta_slot.value_or("?") + ") reference=(" +
            reference[i].job_id + "," + ref_slot.value_or("?") + ")");
        break;
      }
    }
  }

  // Mirror state audit: names + content checksums must equal a fresh full
  // read. Divergence is recorded, then repaired so one bug does not poison
  // every later cycle.
  const std::map<std::string, std::uint64_t> truth = collector_.checksums();
  std::vector<std::string> divergent;
  auto mirror_it = mirror_->begin();
  auto truth_it = truth.begin();
  while (mirror_it != mirror_->end() || truth_it != truth.end()) {
    if (truth_it == truth.end() ||
        (mirror_it != mirror_->end() && mirror_it->first < truth_it->first)) {
      record_violation("pool_negotiator/anti-entropy: mirror has stale ad '" +
                       mirror_it->first + "'");
      divergent.push_back(mirror_it->first);
      ++mirror_it;
    } else if (mirror_it == mirror_->end() ||
               truth_it->first < mirror_it->first) {
      record_violation("pool_negotiator/anti-entropy: mirror missing ad '" +
                       truth_it->first + "'");
      divergent.push_back(truth_it->first);
      ++truth_it;
    } else {
      if (mirror_it->second.checksum != truth_it->second) {
        record_violation(
            "pool_negotiator/anti-entropy: mirror content differs for '" +
            mirror_it->first + "'");
        divergent.push_back(mirror_it->first);
      }
      ++mirror_it;
      ++truth_it;
    }
  }
  for (const std::string& name : divergent) {
    holds_->erase(name);  // repair replaces the entry, hold and all
    const Collector::AdPtr ad = collector_.lookup(name);
    if (!ad) {
      mirror_->erase(name);
      continue;
    }
    MirrorEntry entry;
    entry.ad = ad;
    const auto checksum = truth.find(name);
    entry.checksum = checksum == truth.end() ? 0 : checksum->second;
    entry.is_job = classify_job(*ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    (*mirror_)[name] = std::move(entry);
  }
}

std::size_t PoolNegotiator::negotiate_once() {
  const double now = host_.now();
  ++*cycles_;
  cycles_counter_.inc();
  const std::uint64_t t0 = clock_ ? clock_() : 0;

  bool resynced = false;
  std::vector<std::string> changed = ingest_deltas(resynced);

  // Lapsed holds (lost claims / lost match notifies) re-enter negotiation
  // as changed on both sides. The hold index keeps this O(active holds);
  // scanning the whole mirror here would put an O(pool) term back into
  // every delta cycle.
  for (auto it = holds_->begin(); it != holds_->end();) {
    if (it->second <= now) {
      const auto entry = mirror_->find(it->first);
      if (entry != mirror_->end()) entry->second.hold_until = -1.0;
      changed.push_back(it->first);
      it = holds_->erase(it);
    } else {
      ++it;
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  const bool sweep =
      options_.full_sweep_every > 0 &&
      *cycles_ % static_cast<std::uint64_t>(options_.full_sweep_every) == 0;

  if (changed.empty() && !resynced && !sweep) {
    // Nothing moved since last cycle: the whole point of the delta path.
    ++*skipped_cycles_;
    skipped_counter_.inc();
    if (clock_) delta_cycle_ns_.push_back(clock_() - t0);
    return 0;
  }

  const std::vector<Candidate> slots = eligible_slots(changed, resynced, now);
  const std::vector<Candidate> jobs =
      ordered_pending_jobs(changed, resynced, now);
  const std::vector<Match> matched = match_candidates(jobs, slots, resynced);
  if (clock_) delta_cycle_ns_.push_back(clock_() - t0);

  if (sweep) run_sweep(matched, jobs, slots);

  // Apply match side-effects and hand each match to its owning PoolRunner.
  std::set<std::string> matched_users;
  for (const Match& match : matched) {
    const auto job_it = mirror_->find(match.job_id);
    if (job_it == mirror_->end()) continue;
    MirrorEntry& job = job_it->second;
    job.hold_until = now + options_.hold_timeout;
    (*holds_)[match.job_id] = job.hold_until;
    const auto slot_name = match.slot_ad.eval_string("Name");
    if (slot_name) {
      const auto slot_it = mirror_->find(*slot_name);
      if (slot_it != mirror_->end()) {
        slot_it->second.hold_until = now + options_.hold_timeout;
        (*holds_)[*slot_name] = slot_it->second.hold_until;
      }
    }
    ++(*matched_by_user_)[job.user];
    fair_share_->charge(job.user, 1.0, now);
    matched_users.insert(job.user);
    ++*matches_;
    matches_counter_.inc();
    const auto runner = job.ad->eval_string("MyAddress");
    if (runner) {
      sim::Payload payload;
      payload.set("job", match.job_id);
      payload.set("user", job.user);
      payload.set("slot_name", slot_name.value_or(""));
      payload.set("slot_address",
                  match.slot_ad.eval_string("MyAddress").value_or(""));
      rpc_.notify(sim::Address::parse(*runner), "negotiator.match",
                  std::move(payload));
    }
  }

  // Starvation bookkeeping: a user whose pending jobs were candidates and
  // won nothing lost a real negotiation round.
  std::set<std::string> pending_users;
  for (const Candidate& job : jobs) pending_users.insert(job.entry->user);
  for (const std::string& user : pending_users) {
    if (matched_users.count(user)) {
      fair_share_->note_served(user);
    } else {
      fair_share_->note_starved(user);
    }
  }
  return matched.size();
}

void PoolNegotiator::audit(std::vector<std::string>& out) const {
  for (const std::string& violation : *violations_) out.push_back(violation);
}

}  // namespace condorg::condor
