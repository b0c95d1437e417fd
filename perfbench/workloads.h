// The four benchmark campaigns and the record each one leaves behind.
//
// A campaign builds one World on the default (legacy, single-threaded)
// kernel, submits its whole input, drives the simulation until every job is
// terminal, and reads the metrics and the correctness gate off its final
// state before the World is destroyed.
// Nothing here changes simulator behaviour: a pass only arms instrumentation
// the simulator already has (Profiler, Tracer, DetSan, the pool
// negotiator's wall clock).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What a campaign process arms. kPlain is the timed configuration; the
/// others are the separate instrumented passes of a traced run.
enum class Pass { kPlain, kProfile, kTrace, kDetsan };

/// A fault deliberately planted after the drive loop, so the self-test can
/// prove the gate catches it.
enum class Defect { kNone, kLost, kDuplicate };

struct CampaignSpec {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t jobs = 0;  // total jobs; portal_storm gives each user 10
  Pass pass = Pass::kPlain;
  Defect defect = Defect::kNone;
};

/// Everything a finished campaign reports. Host-time fields end in _s and
/// are wall clock; sim-time fields say sim.
struct CampaignRecord {
  double setup_s = 0;  // host: testbed + daemons + every input submitted
  double drive_s = 0;  // host: the run_until drive loop
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::vector<double> tta_sim_s;  // per job, first execute - submit
  double makespan_sim_s = 0;      // first submit to last completion
  double fairness_jain = 1.0;     // per-user matched jobs at 50% matched
  std::uint64_t kernel_digest = 0;
  std::uint64_t outcome_digest = 0;
  std::vector<std::string> gate_failures;  // empty when every check holds
  /// Deterministic per-layer counts and ratios, by metric name.
  std::map<std::string, double> counters;
  /// Profile pass: host seconds per ledger line (handler families, timer
  /// roles, residual); trace pass: critical-path phases in sim seconds.
  std::map<std::string, double> layers;
};

/// Run one campaign of `spec.workload`; throws std::invalid_argument for an
/// unknown workload name.
CampaignRecord run_campaign(const CampaignSpec& spec);

}  // namespace perfbench
