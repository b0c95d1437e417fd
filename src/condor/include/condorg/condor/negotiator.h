// Condor Negotiator: the Matchmaker.
//
// Each negotiation cycle pairs idle jobs (from the Schedd's queue) with
// unclaimed machine ads (from the Collector) using bilateral ClassAd
// matching (Raman et al. [25], referenced in §4.4/§5 of the paper), ranking
// candidates by the job's Rank expression.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/condor/collector.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/util/metrics.h"

namespace condorg::condor {

struct IdleJob {
  std::string job_id;
  /// Shared and immutable, the same handle the Collector hands out for slot
  /// ads: listing a job for a cycle copies a pointer, never the ad.
  Collector::AdPtr ad;
};

/// One job<->slot pairing produced by a cycle.
struct Match {
  std::string job_id;
  classad::ClassAd slot_ad;  // includes Name and MyAddress
};

/// Pure matchmaking: greedily assign each job (in order) its highest-Rank
/// matching slot; each slot is used at most once. Exposed separately from
/// the daemon for direct use by brokers and benchmarks.
///
/// This is the optimized path: before running full bilateral matching, each
/// job's Requirements is analyzed into a list of `TARGET.Attr <op> literal`
/// conjuncts, and each slot's referenced attributes are resolved to literal
/// values once per call. A slot whose literals falsify any conjunct can
/// never satisfy the conjunction, so it is rejected without touching the
/// evaluator; anything not provably rejectable falls through to full
/// symmetric_match. Slots are compiled up front; a job is compiled only
/// when the greedy loop reaches it, so the jobs left over once every slot
/// is taken cost nothing. Results are byte-identical to
/// match_jobs_to_slots_reference (pinned by tests).
std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<Collector::AdPtr>& slots);

/// Convenience overload over plain ads (wraps each slot in a non-owning
/// pointer); kept for callers and tests that own their slot vectors.
std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<classad::ClassAd>& slots);

/// The original straight-line matcher: full symmetric_match against every
/// slot, no prefilter, no caching. Retained as the behavioral oracle for
/// equivalence tests and as the baseline side of the matchmaking benchmark.
std::vector<Match> match_jobs_to_slots_reference(
    const std::vector<IdleJob>& jobs,
    const std::vector<Collector::AdPtr>& slots);

/// `State == "Unclaimed"`: the constraint both negotiators use to select
/// negotiable slot ads. Parsed once per process; the expression is
/// immutable, so every daemon shares it.
const classad::ExprPtr& unclaimed_slot_constraint();

struct NegotiatorOptions {
  double cycle_period = 60.0;
};

class Negotiator {
 public:
  /// Personal-pool daemon on the submit host.
  CONDORG_HOST_LOCAL("user");

  using JobSource = std::function<std::vector<IdleJob>()>;
  using MatchSink = std::function<void(const Match&)>;
  using Options = NegotiatorOptions;

  Negotiator(sim::Host& host, Collector& collector, JobSource jobs,
             MatchSink sink, Options options = {});

  /// Begin periodic negotiation cycles.
  void start();

  /// Run one cycle immediately (also used by tests). The Collector is read
  /// first: with no negotiable slot the cycle is counted and ends without
  /// asking the JobSource for its list.
  std::size_t negotiate_once();

  std::uint64_t cycles() const { return *cycles_; }
  std::uint64_t matches_made() const { return *matches_; }

 private:
  void cycle();

  sim::Host& host_;
  Collector& collector_;
  JobSource jobs_;
  MatchSink sink_;
  Options options_;
  // Metric handles resolved once; Counter references stay stable for the
  // registry's lifetime, so the match loop skips the name+label lookup.
  util::Counter& cycles_counter_;
  util::Counter& no_slot_cycles_counter_;  // cycles that found no slot
  util::Counter& matches_counter_;
  bool started_ = false;
  int boot_id_ = 0;
  det::HostLocal<std::uint64_t> cycles_;
  det::HostLocal<std::uint64_t> matches_;
};

}  // namespace condorg::condor
