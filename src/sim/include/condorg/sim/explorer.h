// Schedule-space model checking over the deterministic kernel.
//
// The paper's exactly-once claim (§3.2) is a property of *every* schedule —
// every delivery order, every same-timestamp tie-break, every crash point —
// not just the orders the default FIFO kernel happens to produce. Explorer
// re-runs a bounded scenario under a ScheduleOracle (a recording
// ScheduleController): a DFS over recorded choice points systematically
// flips one decision at a time (stateless model checking in the DPOR
// family), pruning branches whose (world-state hash, alternative) pair has
// already been expanded; above the DFS budget a randomized phase keeps
// sampling schedules with every concrete choice recorded. Each run asserts
// the full InvariantAuditor suite; a violated run yields a ScheduleTrace —
// the complete choice list — that replay() re-executes byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "condorg/sim/schedule_controller.h"
#include "condorg/util/rng.h"

namespace condorg::sim {

/// Every Host::crash_point site in the tree, sorted. This is the explorer's
/// ground truth for fault coverage: the protocol spec
/// (src/proto/protocols.json) claims these points per durable message, and
/// tools/analyze/condorg_proto.py cross-checks spec <-> code site <-> this
/// table, so a new crash_point() call that is not added here fails
/// `analyze.proto`. `condorg_explore --list-crash-points` dumps it.
const std::vector<std::string>& enumerated_crash_points();

/// One recorded decision. `state_hash` is the scenario's world-state hash
/// taken just before the decision; equal hashes mean "same state reached by
/// a different history", which is what lets the explorer prune prefixes.
struct ExploreChoice {
  enum class Kind : std::uint8_t { kEvent = 0, kCrash = 1 };
  Kind kind = Kind::kEvent;
  std::uint32_t chosen = 0;        // picked candidate (kEvent) / 1 = crash
  std::uint32_t alternatives = 1;  // options that existed at this point
  std::uint64_t state_hash = 0;

  bool operator==(const ExploreChoice&) const = default;
};

/// A complete, replayable schedule: scenario name + every recorded choice.
/// The text form is what condorg_explore writes next to a violation.
struct ScheduleTrace {
  std::string scenario;
  std::uint64_t seed = 0;
  std::vector<ExploreChoice> choices;

  std::string serialize() const;
  static bool parse(const std::string& text, ScheduleTrace* out);
};

/// What one scenario run produced: the auditor's findings (formatted
/// deterministically by the scenario), the kernel's (when, seq) trace
/// digest — the schedule's fingerprint — and the dispatch count.
struct RunOutcome {
  std::vector<std::string> violations;
  std::uint64_t trace_digest = 0;
  std::uint64_t dispatched = 0;
};

/// The ScheduleController the Explorer hands to a scenario: plays a forced
/// choice prefix, then defaults (FIFO / no crash) or — in the randomized
/// phase — draws from a recorded RNG. Records every decision it makes up to
/// the choice-point budget; past it, everything defaults and is unrecorded,
/// which is what keeps each run (and the DFS tree) bounded.
class ScheduleOracle : public ScheduleController {
 public:
  struct Config {
    std::size_t max_branch = 3;         // alternatives considered per point
    std::size_t max_choice_points = 48; // recorded decisions per run
    std::size_t crash_budget = 1;       // crashes injectable per run
    double crash_downtime = 40.0;       // seconds a crashed host stays down
    double quantum = 0.05;              // delivery quantization, seconds
  };

  ScheduleOracle(const Config& config, std::vector<ExploreChoice> forced);

  /// Choices past the forced prefix are drawn from `rng` (recorded, so the
  /// run stays replayable) instead of defaulting.
  void set_random_tail(util::Rng rng) { random_ = rng; }

  /// World-state hash provider; the scenario sets it once its world exists.
  /// Unset, state hashes are 0 and pruning degrades to per-salt dedup.
  void set_state_probe(std::function<std::uint64_t()> probe) {
    probe_ = std::move(probe);
  }

  const std::vector<ExploreChoice>& record() const { return record_; }
  std::size_t crashes_injected() const { return crashes_injected_; }

  /// Crash points offered to inject_crash that are absent from
  /// enumerated_crash_points() — a code/table drift the Explorer folds into
  /// every run's violations (sorted, deduplicated).
  const std::vector<std::string>& unknown_points() const {
    return unknown_points_;
  }
  /// Crash points this run actually crashed at.
  const std::set<std::string>& crashed_points() const {
    return crashed_points_;
  }

  // ScheduleController:
  std::size_t pick_event(Time when, std::size_t count) override;
  bool inject_crash(const std::string& host, const char* point,
                    double* downtime) override;
  double delivery_quantum() const override { return config_.quantum; }

 private:
  /// Forced value for the next choice point, or nullopt past the prefix.
  std::optional<std::uint32_t> next_forced(ExploreChoice::Kind kind);
  std::uint64_t state_hash(std::uint64_t salt) const;

  Config config_;
  std::vector<ExploreChoice> forced_;
  std::vector<ExploreChoice> record_;
  std::function<std::uint64_t()> probe_;
  std::optional<util::Rng> random_;
  std::vector<std::string> unknown_points_;
  std::set<std::string> crashed_points_;
  std::size_t cursor_ = 0;
  std::size_t crashes_injected_ = 0;
};

class Explorer {
 public:
  /// A bounded, self-contained experiment: builds a fresh world, attaches
  /// the oracle as its Simulation's controller, runs to a fixed horizon,
  /// and reports the auditor's findings. Runs must be deterministic given
  /// the oracle (fixed world seed, no wall-clock, no ambient RNG).
  using Scenario = std::function<RunOutcome(ScheduleOracle&)>;

  struct Config {
    ScheduleOracle::Config oracle;
    std::size_t max_schedules = 200000;  // cap on DFS runs
    std::size_t random_runs = 0;         // randomized phase after the DFS
    std::uint64_t seed = 1;              // base seed for the random phase
    bool stop_on_violation = true;
  };

  struct Result {
    std::size_t runs = 0;
    std::size_t distinct_schedules = 0;  // distinct trace digests seen
    std::size_t pruned = 0;              // successors skipped by state hash
    bool exhausted = false;  // DFS frontier emptied below max_schedules
    bool violation_found = false;
    ScheduleTrace counterexample;         // meaningful iff violation_found
    std::vector<std::string> violations;  // from the violating run
    /// Crash points at which at least one run injected a crash: the fault
    /// coverage the exploration actually achieved.
    std::set<std::string> crashed_points;
  };

  Explorer(std::string scenario_name, Scenario scenario, Config config);

  /// DFS over the choice tree (then the optional randomized phase).
  Result explore();

  /// Re-run one schedule from its trace. A counterexample must reproduce
  /// the identical violations and trace digest — that equality is tested.
  RunOutcome replay(const ScheduleTrace& trace) const;

 private:
  struct RunRecord {
    RunOutcome outcome;
    std::vector<ExploreChoice> record;
    std::set<std::string> crashed_points;
  };
  RunRecord run_one(const std::vector<ExploreChoice>& forced,
                    const util::Rng* random_tail) const;

  std::string name_;
  Scenario scenario_;
  Config config_;
};

}  // namespace condorg::sim
