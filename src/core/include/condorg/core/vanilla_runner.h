// Runs vanilla-universe jobs on the personal pool.
//
// Bridges the Schedd queue to the Condor machinery: feeds idle vanilla jobs
// to the Negotiator and hands each match to the ClaimTable, whose Shadow
// claims the slot, activates the job, and reports completion / eviction
// (with checkpoint) back into the queue. With GlideIn startds in the pool
// this is exactly Fig. 2 of the paper.
//
// A job's ad (broker_job_ad) depends only on what was fixed at submit, so
// the runner builds it once, the first time the job is listed, and shares
// that immutable ad with every later cycle and with the job's requeues. The
// entry goes when the job turns terminal; a submit-host crash drops them
// all, and the reborn runner rebuilds each from the reloaded queue.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "condorg/condor/collector.h"
#include "condorg/condor/negotiator.h"
#include "condorg/condor/shadow.h"
#include "condorg/core/claim_table.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/det.h"
#include "condorg/sim/network.h"

namespace condorg::core {

struct VanillaRunnerOptions {
  condor::NegotiatorOptions negotiator;
  condor::ShadowOptions shadow;
};

class VanillaRunner {
 public:
  VanillaRunner(Schedd& schedd, sim::Network& network,
                condor::Collector& collector,
                VanillaRunnerOptions options = {});
  ~VanillaRunner();

  VanillaRunner(const VanillaRunner&) = delete;
  VanillaRunner& operator=(const VanillaRunner&) = delete;

  /// Start negotiation cycles.
  void start();

  condor::Negotiator& negotiator() { return *negotiator_; }

  std::uint64_t shadows_spawned() const { return claims_.spawned(); }
  std::size_t active_shadows() const { return claims_.active(); }
  /// Job ads built so far and not yet dropped (no terminal job is ever in
  /// the cache).
  std::size_t cached_job_ads() const { return job_ads_->size(); }
  /// The shared ad cached for job `id`, or null when there is none.
  condor::Collector::AdPtr cached_job_ad(std::uint64_t id) const;

 private:
  std::vector<condor::IdleJob> idle_jobs();
  void on_match(const condor::Match& match);

  Schedd& schedd_;
  sim::Host& host_;
  /// Built before the constructor makes the Negotiator, so its boot rule
  /// makes reloaded Running jobs Idle before the Negotiator's boot cycle
  /// lists them; declared first, so it outlives the Negotiator.
  ClaimTable claims_;
  std::unique_ptr<condor::Negotiator> negotiator_;
  det::HostLocal<
      std::unordered_map<std::uint64_t, condor::Collector::AdPtr>>
      job_ads_;
  int crash_listener_ = 0;
  int queue_listener_ = 0;
};

}  // namespace condorg::core
