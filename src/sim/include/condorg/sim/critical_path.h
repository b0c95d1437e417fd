// Causal critical-path analysis over a trace's cause edges.
//
// The Tracer's cause edges turn each job's records into a DAG; this walks
// it backward from the job's ACTIVE milestone (first "userlog.EXECUTE") and
// from its terminal record (the "job" root span end), attributing every
// second of the walk window to a fixed phase taxonomy:
//
//   schedd-queue      idle in the Schedd before the GridManager submits
//   gram-submit-rtt   request/commit/callback legs of the two-phase submit
//   gatekeeper-auth   GSI authentication at the gatekeeper (synchronous in
//                     this model, so honestly ~0 — kept as its own bucket)
//   jobmanager-spawn  JobManager creation + local scheduler submission
//   stage-in          executable transfer from the client's GASS server
//   poll-wait         local queue wait: PENDING until the site's scheduler
//                     starts the job. The JobManager reports ACTIVE from
//                     the scheduler's start event, so no poll quantum is
//                     left in it; the name stays because reports and
//                     perfbench read it as cp.poll_wait_p99_s
//   recovery          declared recovery windows (recovery.begin → .end) and
//                     resubmission ladders; applied as an overlay — outage
//                     time is carved out of whichever interval covers it,
//                     because a recovery that overlaps execution never
//                     appears as a backward step of its own
//   execution         remote runtime (terminal walk only)
//   stage-out         output transfer back to the client (terminal walk)
//   unattributed      intervals ending at records the taxonomy cannot name
//
// Each backward step covers the interval [cause.t, effect.t] and charges it
// to the phase the *effect* record marks the end of; the segments tile the
// window exactly, so per-job attributions sum to the window by construction
// (self_check() verifies it). When a cause edge leaves the job's own chain
// (e.g. a GridManager tick batched several jobs), the walk falls back to
// the job's previous record and keeps going — the remainder is reported,
// never hidden.
//
// Everything here is derived from simulated time, so the JSON and
// folded-stack exports are byte-identical across same-seed runs. The
// folded format ("stack;frames count" per line) is what standard flamegraph
// tooling consumes; counts are milliseconds summed across jobs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "condorg/sim/tracer.h"

namespace condorg::sim {

enum class Phase {
  kScheddQueue,
  kGramSubmitRtt,
  kGatekeeperAuth,
  kJobmanagerSpawn,
  kStageIn,
  kPollWait,
  kRecovery,
  kExecution,
  kStageOut,
  kUnattributed,
};
inline constexpr std::size_t kPhaseCount = 10;
const char* phase_name(Phase phase);

class CriticalPath {
 public:
  /// One job's backward walk: the window in seconds and its tiling into
  /// phase buckets (sum(phases) == window, checked by self_check()).
  struct JobWalk {
    std::uint64_t job = 0;
    double window = 0.0;
    std::array<double, kPhaseCount> phases{};
  };

  explicit CriticalPath(const std::vector<TraceRecord>& records);

  /// Jobs that reached ACTIVE, walked from the EXECUTE milestone back to
  /// the root span begin. Ordered by job id.
  const std::vector<JobWalk>& to_active() const { return to_active_; }
  /// Jobs whose root span closed, walked from the close. Ordered by job id.
  const std::vector<JobWalk>& to_terminal() const { return to_terminal_; }
  std::size_t jobs_seen() const { return jobs_seen_; }

  double mean_time_to_active() const;
  /// Fraction of the summed to-ACTIVE window attributed to a named phase
  /// (1.0 - unattributed share). 0 when no job reached ACTIVE.
  double attributed_share() const;
  /// p99 seconds per phase over the to-ACTIVE walks, keyed by phase name.
  std::map<std::string, double> phase_p99_to_active() const;

  /// Deterministic JSON report: aggregate p50/p99/mean/share per phase for
  /// both walks, plus the explicit unattributed remainder.
  std::string to_json() const;
  /// Folded stacks ("time-to-active;<phase> <ms>") for flamegraph tooling.
  std::string to_folded() const;
  /// Structural validation: every job's phase buckets must tile its window
  /// within tolerance. Returns one line per violation.
  std::vector<std::string> self_check() const;

 private:
  std::vector<JobWalk> to_active_;
  std::vector<JobWalk> to_terminal_;
  std::size_t jobs_seen_ = 0;
};

}  // namespace condorg::sim
