// Fault drill: walk through the paper's four failure types (§4.2) against
// a live campaign and narrate the agent's recovery: F1 JobManager crash,
// F2 site front-end crash, F3 submit-machine crash, F4 network partition.
#include <cstdio>
#include <cstdlib>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/sim/det.h"
#include "condorg/util/strings.h"
#include "condorg/workloads/grid_builder.h"
#ifdef CONDORG_AUDIT
#include "condorg/core/audit.h"
#endif

namespace core = condorg::core;
namespace cw = condorg::workloads;

int main() {
  cw::GridTestbed testbed(1984);
  // Tracing is always on here: the drill doubles as the exercise for the
  // auditor's trace-root check (every terminal job must close its root span
  // even across the crashes below). CONDORG_TRACE=<path> exports it.
  testbed.world().sim().tracer().set_enabled(true);
  cw::SiteSpec spec;
  spec.name = "pbs.anl.gov";
  spec.cpus = 16;
  testbed.add_site(spec);
  spec.name = "lsf.ncsa.edu";
  testbed.add_site(spec);
  testbed.add_submit_host("submit.wisc.edu");

  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

#ifdef CONDORG_AUDIT
  // Audit aggressively: the drills are exactly the mutations the invariants
  // are meant to survive.
  core::StandardAuditor auditor(testbed.world().sim(), /*period=*/64);
  auditor.attach_agent(agent);
  for (const auto& site : testbed.sites()) {
    auditor.attach_gatekeeper(*site->gatekeeper);
  }
#endif

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.runtime_seconds = 3 * 3600.0;  // long enough to straddle the drills
    ids.push_back(agent.submit(job));
  }
  auto& world = testbed.world();
  auto banner = [&](const char* what) {
    std::printf("[%-11s] %s\n",
                condorg::util::format_duration(world.now()).c_str(), what);
  };

  world.sim().run_until(1800.0);
  banner("campaign running; beginning failure drills");

  // F1: kill every JobManager at site 0 (processes only).
  {
    int killed = 0;
    for (const auto& [id, job] : agent.schedd().jobs()) {
      if (job.gram_site == "pbs.anl.gov" && !job.gram_contact.empty()) {
        if (testbed.site(0).gatekeeper->kill_jobmanager(job.gram_contact)) {
          ++killed;
        }
      }
    }
    banner(condorg::util::format("F1: killed %d JobManager processes",
                                 killed)
               .c_str());
  }
  world.sim().run_until(3600.0);

  // F2: crash the other site's front-end machine for 20 minutes.
  testbed.site(1).frontend->crash_for(1200.0);
  banner("F2: crashed lsf.ncsa.edu front-end (20 min outage)");
  world.sim().run_until(6000.0);

  // F4: partition the submit machine from site 0 for 15 minutes.
  world.net().set_partitioned("submit.wisc.edu", "pbs.anl.gov", true);
  banner("F4: partitioned submit machine from pbs.anl.gov");
  world.sim().schedule_at(world.now() + 900.0, [&] {
    world.net().set_partitioned("submit.wisc.edu", "pbs.anl.gov", false);
  });
  world.sim().run_until(8000.0);

  // F3: crash the submit machine itself for 10 minutes.
  agent.host().crash_for(600.0);
  banner("F3: crashed the submit machine (GridManager + Schedd)");

  while (!agent.schedd().all_terminal() && world.now() < 4 * 86400.0) {
    world.sim().run_until(world.now() + 600.0);
  }

  int completed = 0;
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted) ++completed;
  }
  std::size_t executions = 0;
  for (const auto& site : testbed.sites()) {
    for (const auto& record : site->scheduler->history()) {
      if (record.state == condorg::batch::JobState::kCompleted) ++executions;
    }
  }
  banner("drill complete");
  std::printf("\njobs completed:            %d/%zu\n", completed, ids.size());
  std::printf("completed site executions: %zu (exactly-once requires <= %zu "
              "successful runs counted once each)\n",
              executions, ids.size());
  std::printf("JobManager restarts:       %llu\n",
              static_cast<unsigned long long>(
                  agent.gridmanager().jobmanager_restarts()));
  std::printf("JOBMANAGER_LOST events:    %zu\n",
              agent.log().count(core::LogEventKind::kJobManagerLost));
  std::printf("RECONNECTED events:        %zu\n",
              agent.log().count(core::LogEventKind::kReconnected));
  std::printf("site probes sent:          %llu\n",
              static_cast<unsigned long long>(
                  agent.gridmanager().probes_sent()));
  bool ok =
      completed == static_cast<int>(ids.size()) && executions == ids.size();
#ifdef CONDORG_AUDIT
  std::printf("\n%s", auditor.report().c_str());
  ok = ok && auditor.ok();
#endif
  const auto& tracer = testbed.world().sim().tracer();
  std::printf("trace records:             %zu (%zu spans still open)\n",
              tracer.records().size(), tracer.open_span_count());
  const auto recoveries =
      tracer.paired_event_latencies("recovery.begin", "recovery.end");
  std::printf("recovery windows traced:   %zu\n", recoveries.size());
  if (const char* trace_path = std::getenv("CONDORG_TRACE")) {
    if (tracer.write_jsonl(trace_path)) {
      std::printf("trace written to:          %s\n", trace_path);
    }
  }
  ok = ok && condorg::det::report("fault_drill") == 0;
  std::printf("\n%s\n", ok ? "ALL JOBS RECOVERED, EXACTLY ONCE."
                           : "RECOVERY INCOMPLETE OR DUPLICATED WORK!");
  return ok ? 0 : 1;
}
