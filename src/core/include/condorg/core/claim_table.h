// The claim half of the personal pool (§5, Fig. 2): one Shadow per matched
// vanilla job.
//
// Whoever did the matching (the personal Negotiator for VanillaRunner, the
// central PoolNegotiator for PoolRunner), a matched slot is claimed the
// same way: a Shadow claims it and activates the job, the Schedd records
// the execution, and the Shadow's verdict goes back into the queue —
// completion, or eviction with the last checkpoint so the work carries over
// to the next machine. The table owns those Shadows and their claim ids.
//
// Recovery has one rule: the Shadows live in the submit host's memory, so
// a crash kills them all, and at boot a persisted Running vanilla job with
// no live Shadow is Idle again (it re-enters matchmaking and resumes from
// its checkpoint).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "condorg/condor/shadow.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"

namespace condorg::core {

class ClaimTable {
 public:
  /// Lives with the Schedd on the user's submit host.
  CONDORG_HOST_LOCAL("user");

  /// `on_release` runs after a finished claim's entry is erased (PoolRunner
  /// rolls its publish window there); may be empty.
  ClaimTable(Schedd& schedd, sim::Network& network,
             condor::ShadowOptions options,
             std::function<void()> on_release = nullptr);
  ~ClaimTable();

  ClaimTable(const ClaimTable&) = delete;
  ClaimTable& operator=(const ClaimTable&) = delete;

  /// Spawn a Shadow that claims `slot` for `job` and mark the job
  /// executing on `slot_name`. `name` is the Shadow's job name; the claim
  /// id is `<name>.<n>`, n counting every claim this table has made.
  void claim(const Job& job, const std::string& name,
             const sim::Address& slot, const std::string& slot_name);

  /// True while a Shadow is placing or running job `job_id`.
  bool claimed(std::uint64_t job_id) const {
    return shadows_.count(job_id) != 0;
  }
  std::size_t active() const { return shadows_.size(); }
  std::uint64_t spawned() const { return spawned_; }

 private:
  /// Drop the finished Shadow (deferred: it is the caller) and run the
  /// release hook.
  void release(std::uint64_t job_id);

  Schedd& schedd_;
  sim::Network& network_;
  sim::Host& host_;
  condor::ShadowOptions options_;
  std::function<void()> on_release_;
  sim::Lifetime life_;

  // det-local(shadows_): touched only from this host's own message and
  // timer events; a crash clears it.
  std::map<std::uint64_t, std::unique_ptr<condor::Shadow>> shadows_;
  std::uint64_t claim_counter_ = 0;
  std::uint64_t spawned_ = 0;
  int boot_id_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
