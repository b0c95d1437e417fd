#include "condorg/sim/explorer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>

#include "condorg/sim/det.h"
#include "condorg/util/strings.h"

namespace condorg::sim {
namespace {
const char* kind_name(ExploreChoice::Kind kind) {
  return kind == ExploreChoice::Kind::kCrash ? "crash" : "event";
}

// Sorted. Kept in lockstep with the Host::crash_point call sites and the
// crash_points claims in src/proto/protocols.json; condorg_proto.py scrapes
// this initializer by name, so keep one string literal per line.
constexpr const char* kEnumeratedCrashPoints[] = {
    "gatekeeper.restart_recv",
    "gatekeeper.submit_accepted",
    "gatekeeper.submit_recv",
    "gram.client.commit_send",
    "gram.client.contact_persist",
    "gram.client.submit_send",
    "gridmanager.submit_ack",
    "jobmanager.callback_send",
    "jobmanager.cancel_recv",
    "jobmanager.commit_recv",
    "jobmanager.refresh_recv",
    "jobmanager.update_gass_recv",
    "myproxy.store_recv",
    "portal.deliver_recv",
    "portal.submit_recv",
};
}  // namespace

const std::vector<std::string>& enumerated_crash_points() {
  static const std::vector<std::string> points(std::begin(kEnumeratedCrashPoints),
                                               std::end(kEnumeratedCrashPoints));
  return points;
}

// --- ScheduleTrace ---------------------------------------------------------

std::string ScheduleTrace::serialize() const {
  std::string out = "condorg-explore-trace v1\n";
  out += "scenario " + scenario + "\n";
  out += "seed " + std::to_string(seed) + "\n";
  for (const ExploreChoice& c : choices) {
    out += util::format("choice %s %u %u %016llx\n", kind_name(c.kind),
                        c.chosen, c.alternatives,
                        static_cast<unsigned long long>(c.state_hash));
  }
  out += "end\n";
  return out;
}

bool ScheduleTrace::parse(const std::string& text, ScheduleTrace* out) {
  ScheduleTrace trace;
  bool saw_header = false;
  bool saw_end = false;
  for (const std::string& line : util::split(text, '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> tokens = util::split(line, ' ');
    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "condorg-explore-trace" ||
          tokens[1] != "v1") {
        return false;
      }
      saw_header = true;
      continue;
    }
    if (tokens[0] == "scenario" && tokens.size() == 2) {
      trace.scenario = tokens[1];
    } else if (tokens[0] == "seed" && tokens.size() == 2) {
      trace.seed = std::strtoull(tokens[1].c_str(), nullptr, 10);
    } else if (tokens[0] == "choice" && tokens.size() == 5) {
      ExploreChoice c;
      if (tokens[1] == "crash") {
        c.kind = ExploreChoice::Kind::kCrash;
      } else if (tokens[1] == "event") {
        c.kind = ExploreChoice::Kind::kEvent;
      } else {
        return false;
      }
      c.chosen = static_cast<std::uint32_t>(
          std::strtoul(tokens[2].c_str(), nullptr, 10));
      c.alternatives = static_cast<std::uint32_t>(
          std::strtoul(tokens[3].c_str(), nullptr, 10));
      c.state_hash = std::strtoull(tokens[4].c_str(), nullptr, 16);
      trace.choices.push_back(c);
    } else if (tokens[0] == "end" && tokens.size() == 1) {
      saw_end = true;
      break;
    } else {
      return false;
    }
  }
  if (!saw_header || !saw_end) return false;
  *out = std::move(trace);
  return true;
}

// --- ScheduleOracle --------------------------------------------------------

ScheduleOracle::ScheduleOracle(const Config& config,
                               std::vector<ExploreChoice> forced)
    : config_(config), forced_(std::move(forced)) {}

std::uint64_t ScheduleOracle::state_hash(std::uint64_t salt) const {
  // The probe reads cross-host daemon state and may be invoked from inside
  // a stamped event (inject_crash fires at a crash_point in daemon code);
  // it is harness-privileged, so run it with no current host.
  det::ScopedHost privileged(nullptr);
  return util::fnv1a_mix(salt, probe_ ? probe_() : 0);
}

std::optional<std::uint32_t> ScheduleOracle::next_forced(
    ExploreChoice::Kind kind) {
  if (cursor_ >= forced_.size()) return std::nullopt;
  const ExploreChoice& f = forced_[cursor_++];
  // A kind mismatch means the trace came from a different build of the
  // scenario; fall back to the default rather than crash-looping a replay.
  if (f.kind != kind) return 0;
  return f.chosen;
}

std::size_t ScheduleOracle::pick_event(Time when, std::size_t count) {
  const auto branch = static_cast<std::uint32_t>(
      std::min(count, std::max<std::size_t>(config_.max_branch, 1)));
  const std::optional<std::uint32_t> forced = next_forced(
      ExploreChoice::Kind::kEvent);
  if (!forced && record_.size() >= config_.max_choice_points) {
    return 0;  // budget spent: unrecorded FIFO tail
  }
  std::uint32_t chosen = 0;
  if (forced) {
    chosen = *forced % branch;
  } else if (random_) {
    chosen = static_cast<std::uint32_t>(random_->below(branch));
  }
  std::uint64_t when_bits = 0;
  static_assert(sizeof(when_bits) == sizeof(when));
  std::memcpy(&when_bits, &when, sizeof(when_bits));
  record_.push_back(ExploreChoice{
      ExploreChoice::Kind::kEvent, chosen, branch,
      state_hash(util::fnv1a_mix(when_bits, count))});
  return chosen;
}

bool ScheduleOracle::inject_crash(const std::string& host, const char* point,
                                  double* downtime) {
  const std::vector<std::string>& known = enumerated_crash_points();
  if (!std::binary_search(known.begin(), known.end(), point)) {
    // Record the drift whether or not we crash here: the point exists in
    // code but not in the table, so the DFS cannot claim fault coverage.
    if (!std::binary_search(unknown_points_.begin(), unknown_points_.end(),
                            point)) {
      unknown_points_.insert(std::lower_bound(unknown_points_.begin(),
                                              unknown_points_.end(), point),
                             point);
    }
  }
  if (crashes_injected_ >= config_.crash_budget) return false;
  const std::optional<std::uint32_t> forced = next_forced(
      ExploreChoice::Kind::kCrash);
  if (!forced && record_.size() >= config_.max_choice_points) return false;
  bool crash = false;
  if (forced) {
    crash = *forced != 0;
  } else if (random_) {
    // Uniform would crash at half of all protocol steps; keep randomized
    // runs mostly-healthy so they get deep into the protocol.
    crash = random_->below(8) == 0;
  }
  record_.push_back(ExploreChoice{
      ExploreChoice::Kind::kCrash, crash ? 1u : 0u, 2,
      state_hash(util::fnv1a_mix(util::fnv1a(host), util::fnv1a(point)))});
  if (crash) {
    ++crashes_injected_;
    crashed_points_.insert(point);
    *downtime = config_.crash_downtime;
  }
  return crash;
}

// --- Explorer --------------------------------------------------------------

Explorer::Explorer(std::string scenario_name, Scenario scenario, Config config)
    : name_(std::move(scenario_name)),
      scenario_(std::move(scenario)),
      config_(std::move(config)) {}

Explorer::RunRecord Explorer::run_one(
    const std::vector<ExploreChoice>& forced,
    const util::Rng* random_tail) const {
  ScheduleOracle oracle(config_.oracle, forced);
  if (random_tail != nullptr) oracle.set_random_tail(*random_tail);
  RunRecord run;
  run.outcome = scenario_(oracle);
  for (const std::string& point : oracle.unknown_points()) {
    run.outcome.violations.push_back(
        "explorer/unenumerated-crash-point: code offered crash point \"" +
        point + "\" that is missing from kEnumeratedCrashPoints");
  }
  run.record = oracle.record();
  run.crashed_points = oracle.crashed_points();
  return run;
}

Explorer::Result Explorer::explore() {
  Result result;
  std::set<std::uint64_t> digests;
  // (state hash, kind|alternative) pairs already expanded: flipping the same
  // alternative from an equivalent world state explores an equivalent
  // suffix, so the second occurrence is pruned.
  std::set<std::pair<std::uint64_t, std::uint64_t>> expanded;

  auto note_run = [&](const RunRecord& run) {
    ++result.runs;
    digests.insert(run.outcome.trace_digest);
    result.crashed_points.insert(run.crashed_points.begin(),
                                 run.crashed_points.end());
    if (run.outcome.violations.empty()) return false;
    result.violation_found = true;
    result.violations = run.outcome.violations;
    result.counterexample.scenario = name_;
    result.counterexample.seed = config_.seed;
    result.counterexample.choices = run.record;
    return config_.stop_on_violation;
  };

  struct WorkItem {
    std::vector<ExploreChoice> prefix;
    std::size_t branch_from = 0;  // positions before this were branched
  };
  std::vector<WorkItem> stack;
  stack.push_back(WorkItem{});
  bool stopped_early = false;
  while (!stack.empty()) {
    if (result.runs >= config_.max_schedules) {
      stopped_early = true;
      break;
    }
    const WorkItem item = std::move(stack.back());
    stack.pop_back();
    const RunRecord run = run_one(item.prefix, nullptr);
    if (note_run(run)) {
      stopped_early = true;
      break;
    }
    // Branch only at positions this item is responsible for — earlier ones
    // were enqueued when the parent prefix ran. Push ascending so the
    // deepest (rightmost) branch is explored first: classic DFS order.
    for (std::size_t i = item.branch_from; i < run.record.size(); ++i) {
      const ExploreChoice& c = run.record[i];
      for (std::uint32_t alt = 0; alt < c.alternatives; ++alt) {
        if (alt == c.chosen) continue;
        const auto key = std::make_pair(
            c.state_hash,
            static_cast<std::uint64_t>(c.kind) << 32 | alt);
        if (!expanded.insert(key).second) {
          ++result.pruned;
          continue;
        }
        WorkItem next;
        next.prefix.assign(run.record.begin(),
                           run.record.begin() + static_cast<long>(i));
        ExploreChoice flipped = c;
        flipped.chosen = alt;
        next.prefix.push_back(flipped);
        next.branch_from = i + 1;
        stack.push_back(std::move(next));
      }
    }
  }
  result.exhausted = stack.empty() && !stopped_early;

  if (!(result.violation_found && config_.stop_on_violation)) {
    for (std::size_t i = 0; i < config_.random_runs; ++i) {
      const util::Rng rng(util::fnv1a_mix(config_.seed, i + 1));
      const RunRecord run = run_one({}, &rng);
      if (note_run(run)) break;
    }
  }
  result.distinct_schedules = digests.size();
  return result;
}

RunOutcome Explorer::replay(const ScheduleTrace& trace) const {
  return run_one(trace.choices, nullptr).outcome;
}

}  // namespace condorg::sim
