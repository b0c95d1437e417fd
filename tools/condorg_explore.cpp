// condorg_explore: schedule-space model checking from the command line.
//
//   condorg_explore --scenario quickstart                 # exhaust the DFS
//   condorg_explore --scenario quickstart --random 500    # + random phase
//   condorg_explore --scenario quickstart --dump DIR      # write CX trace
//   condorg_explore --replay DIR/counterexample.trace     # re-run one file
//   condorg_explore --list                                # scenario names
//
// Exit status: 0 when exploration finishes with no violation (or, under
// --expect-violation, when one IS found and its replay reproduces the same
// failing audit byte-for-byte); 1 on an unexpected violation or a replay
// mismatch; 2 on usage errors.
//
// --expect-violation is the mutation self-test hook: check.sh runs it with
// CONDORG_MUTATE_DEDUP=1 to prove the checker catches a broken gatekeeper
// dedup, counterexample and all.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "condorg/sim/explorer.h"
#include "condorg/util/json.h"
#include "condorg/workloads/explore_scenarios.h"

namespace {

namespace cw = condorg::workloads;
using condorg::sim::Explorer;
using condorg::sim::RunOutcome;
using condorg::sim::ScheduleTrace;

struct Options {
  std::string scenario = "quickstart";
  std::string replay_path;
  std::string dump_dir;
  std::size_t max_schedules = 200000;
  std::size_t random_runs = 0;
  std::size_t max_choice_points = 48;
  std::size_t max_branch = 3;
  std::size_t crash_budget = 1;
  std::uint64_t seed = 1;
  std::size_t require_distinct = 0;
  bool require_exhausted = false;
  std::vector<std::string> require_crash_points;
  bool expect_violation = false;
  bool list = false;
  bool list_crash_points = false;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario NAME] [--max-schedules N] [--random N]\n"
      "          [--max-choice-points N] [--max-branch N] [--crash-budget N]\n"
      "          [--seed N] [--require-distinct N] [--require-exhausted]\n"
      "          [--require-crash-point POINT]...\n"
      "          [--expect-violation] [--dump DIR]\n"
      "       %s --replay FILE [--scenario NAME]\n"
      "       %s --list | --list-crash-points\n",
      argv0, argv0, argv0);
  return 2;
}

bool parse_size(const char* text, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

void print_violations(const std::vector<std::string>& violations) {
  for (const std::string& line : violations) {
    std::printf("  violation: %s\n", line.c_str());
  }
}

int run_replay(const Options& options) {
  const auto text = condorg::util::read_text_file(options.replay_path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", options.replay_path.c_str());
    return 2;
  }
  ScheduleTrace trace;
  if (!ScheduleTrace::parse(*text, &trace)) {
    std::fprintf(stderr, "unparsable trace file %s\n",
                 options.replay_path.c_str());
    return 2;
  }
  const std::string name =
      trace.scenario.empty() ? options.scenario : trace.scenario;
  Explorer::Config config;  // replay ignores exploration budgets
  Explorer explorer(name, cw::make_explore_scenario(name), config);
  const RunOutcome outcome = explorer.replay(trace);
  std::printf("replayed %s: scenario=%s choices=%zu dispatched=%llu "
              "digest=%016llx\n",
              options.replay_path.c_str(), name.c_str(), trace.choices.size(),
              static_cast<unsigned long long>(outcome.dispatched),
              static_cast<unsigned long long>(outcome.trace_digest));
  print_violations(outcome.violations);
  return outcome.violations.empty() ? 0 : 1;
}

int run_explore(const Options& options) {
  Explorer::Config config;
  config.max_schedules = options.max_schedules;
  config.random_runs = options.random_runs;
  config.seed = options.seed;
  config.oracle.max_choice_points = options.max_choice_points;
  config.oracle.max_branch = options.max_branch;
  config.oracle.crash_budget = options.crash_budget;
  Explorer explorer(options.scenario,
                    cw::make_explore_scenario(options.scenario), config);
  const Explorer::Result result = explorer.explore();

  std::printf("scenario=%s runs=%zu distinct=%zu pruned=%zu exhausted=%s "
              "violation=%s\n",
              options.scenario.c_str(), result.runs,
              result.distinct_schedules, result.pruned,
              result.exhausted ? "yes" : "no",
              result.violation_found ? "FOUND" : "none");

  if (result.violation_found) {
    print_violations(result.violations);
    const std::string serialized = result.counterexample.serialize();
    if (!options.dump_dir.empty()) {
      const std::string path = options.dump_dir + "/counterexample.trace";
      if (!condorg::util::write_text_file(path, serialized)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("counterexample: %zu choices -> %s\n",
                  result.counterexample.choices.size(), path.c_str());
    }
    // A counterexample is only a counterexample if it replays: re-run it
    // and require the identical failing audit, byte for byte.
    const RunOutcome again = explorer.replay(result.counterexample);
    if (again.violations != result.violations) {
      std::fprintf(stderr, "REPLAY MISMATCH: counterexample did not "
                           "reproduce the original violations\n");
      print_violations(again.violations);
      return 1;
    }
    std::printf("counterexample replayed: identical %zu violation(s)\n",
                again.violations.size());
    return options.expect_violation ? 0 : 1;
  }

  if (options.expect_violation) {
    std::fprintf(stderr, "expected a violation but none was found\n");
    return 1;
  }
  if (options.require_exhausted && !result.exhausted) {
    std::fprintf(stderr, "schedule space not exhausted within %zu runs\n",
                 options.max_schedules);
    return 1;
  }
  std::printf("crashed at:");
  for (const std::string& point : result.crashed_points) {
    std::printf(" %s", point.c_str());
  }
  std::printf("\n");
  for (const std::string& point : options.require_crash_points) {
    if (result.crashed_points.count(point) == 0) {
      std::fprintf(stderr, "no schedule crashed at required point %s\n",
                   point.c_str());
      return 1;
    }
  }
  if (result.distinct_schedules < options.require_distinct) {
    std::fprintf(stderr, "only %zu distinct schedules (need >= %zu)\n",
                 result.distinct_schedules, options.require_distinct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--list") == 0) {
      options.list = true;
    } else if (std::strcmp(arg, "--list-crash-points") == 0) {
      options.list_crash_points = true;
    } else if (std::strcmp(arg, "--require-crash-point") == 0 && has_value) {
      options.require_crash_points.emplace_back(argv[++i]);
    } else if (std::strcmp(arg, "--require-exhausted") == 0) {
      options.require_exhausted = true;
    } else if (std::strcmp(arg, "--expect-violation") == 0) {
      options.expect_violation = true;
    } else if (std::strcmp(arg, "--scenario") == 0 && has_value) {
      options.scenario = argv[++i];
    } else if (std::strcmp(arg, "--replay") == 0 && has_value) {
      options.replay_path = argv[++i];
    } else if (std::strcmp(arg, "--dump") == 0 && has_value) {
      options.dump_dir = argv[++i];
    } else if (std::strcmp(arg, "--max-schedules") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.max_schedules)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--random") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.random_runs)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--max-choice-points") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.max_choice_points)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--max-branch") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.max_branch)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--crash-budget") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.crash_budget)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
      std::size_t seed = 0;
      if (!parse_size(argv[++i], &seed)) return usage(argv[0]);
      options.seed = seed;
    } else if (std::strcmp(arg, "--require-distinct") == 0 && has_value) {
      if (!parse_size(argv[++i], &options.require_distinct)) {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  if (options.list) {
    for (const std::string& name : cw::explore_scenario_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (options.list_crash_points) {
    // JSON so condorg_proto.py (or any harness) can diff the built binary's
    // table against the spec without scraping the source.
    std::printf("[");
    const auto& points = condorg::sim::enumerated_crash_points();
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", points[i].c_str());
    }
    std::printf("]\n");
    return 0;
  }
  if (!options.replay_path.empty()) return run_replay(options);
  return run_explore(options);
}
