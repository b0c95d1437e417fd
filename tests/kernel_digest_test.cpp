// Pinned kernel digests: the quickstart and fault-drill scenarios must
// commit exactly the event stream they have always committed. The values
// below are the sequential kernel's (when, seq) FNV trace digest, its
// dispatch count, and an FNV-1a hash of the agent's user log, recorded from
// the kernel as it stood before the island-parallel executor was deleted.
// A change that moves any of them changed dispatch order or protocol
// behaviour; re-pin only with a CHANGES.md entry that says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/sim/det.h"
#include "condorg/sim/world.h"
#include "condorg/workloads/grid_builder.h"

namespace {

namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace det = condorg::det;
namespace sim = condorg::sim;

constexpr std::uint64_t kQuickstartDigest = 10507264618115530486ull;
constexpr std::uint64_t kQuickstartDispatched = 309;
constexpr std::uint64_t kQuickstartUserLogHash = 16787408943648267713ull;
constexpr std::uint64_t kFaultDrillDigest = 17905112123639085090ull;
constexpr std::uint64_t kFaultDrillDispatched = 414;
constexpr std::uint64_t kFaultDrillUserLogHash = 11421543044451863938ull;

struct RunArtifacts {
  std::uint64_t digest = 0;
  std::uint64_t dispatched = 0;
  int completed = 0;
  std::string user_log;
  std::string trace_jsonl;
  std::size_t detsan_violations = 0;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string format_user_log(const core::CondorGAgent& agent) {
  std::string out;
  for (const auto& event : agent.log().events()) {
    out += std::to_string(event.time) + " " + std::to_string(event.job_id) +
           " " + core::to_string(event.kind) + " " + event.detail + "\n";
  }
  return out;
}

/// The quickstart example in miniature: two sites, one agent, a batch of
/// grid-universe jobs, run to completion.
RunArtifacts run_quickstart(bool trace) {
  det::take_violations();  // clean slate per run (process-global storage)
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/2001);
  sim::Simulation& s = testbed.world().sim();
  if (trace) s.tracer().set_enabled(true);

  cw::SiteSpec pbs;
  pbs.name = "pbs.anl.gov";
  pbs.kind = cw::SiteKind::kPbs;
  pbs.cpus = 4;
  testbed.add_site(pbs);
  cw::SiteSpec lsf;
  lsf.name = "lsf.ncsa.edu";
  lsf.kind = cw::SiteKind::kLsf;
  lsf.cpus = 2;
  testbed.add_site(lsf);

  testbed.add_submit_host("desktop.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "desktop.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "render_frame";
    job.runtime_seconds = 600 + 60 * i;
    job.output_size = 1 << 20;
    ids.push_back(agent.submit(job));
  }
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 300.0);
  }

  RunArtifacts a;
  a.digest = s.trace_digest();
  a.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted) ++a.completed;
  }
  a.user_log = format_user_log(agent);
  if (trace) a.trace_jsonl = s.tracer().to_jsonl();
  a.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return a;
}

/// The fault_drill example in miniature: a front-end crash, a partition
/// window, and a submit-host crash while jobs are in flight.
RunArtifacts run_fault_drill() {
  det::take_violations();
  det::set_enabled(true);

  cw::GridTestbed testbed(/*seed=*/4242);
  sim::Simulation& s = testbed.world().sim();

  cw::SiteSpec a_spec;
  a_spec.name = "pbs.anl.gov";
  a_spec.kind = cw::SiteKind::kPbs;
  a_spec.cpus = 2;
  testbed.add_site(a_spec);
  cw::SiteSpec b_spec;
  b_spec.name = "lsf.ncsa.edu";
  b_spec.kind = cw::SiteKind::kLsf;
  b_spec.cpus = 2;
  testbed.add_site(b_spec);

  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.executable = "drill";
    job.runtime_seconds = 900 + 90 * i;
    ids.push_back(agent.submit(job));
  }

  s.run_until(1800.0);
  testbed.site(1).frontend->crash_for(1200.0);
  s.run_until(4000.0);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  s.schedule_at(4600.0, [&testbed] {
    testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                          false);
  });
  s.run_until(6000.0);
  agent.host().crash_for(600.0);
  while (!agent.schedd().all_terminal() && testbed.world().now() < 24 * 3600.0) {
    s.run_until(testbed.world().now() + 600.0);
  }

  RunArtifacts out;
  out.digest = s.trace_digest();
  out.dispatched = s.dispatched();
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted)
      ++out.completed;
  }
  out.user_log = format_user_log(agent);
  out.detsan_violations = det::take_violations().size();
  det::set_enabled(false);
  return out;
}

TEST(KernelDigest, QuickstartMatchesPinnedStream) {
  const RunArtifacts a = run_quickstart(/*trace=*/false);
  EXPECT_EQ(a.completed, 10);
  EXPECT_EQ(a.digest, kQuickstartDigest);
  EXPECT_EQ(a.dispatched, kQuickstartDispatched);
  EXPECT_EQ(fnv1a(a.user_log), kQuickstartUserLogHash);
  EXPECT_EQ(a.detsan_violations, 0u);
}

TEST(KernelDigest, FaultDrillMatchesPinnedStream) {
  const RunArtifacts a = run_fault_drill();
  EXPECT_EQ(a.completed, 6);
  EXPECT_EQ(a.digest, kFaultDrillDigest);
  EXPECT_EQ(a.dispatched, kFaultDrillDispatched);
  EXPECT_EQ(fnv1a(a.user_log), kFaultDrillUserLogHash);
  EXPECT_EQ(a.detsan_violations, 0u);
}

// Arming the tracer adds causal bookkeeping around every dispatch but must
// not move a single event: the traced run commits the pinned stream too,
// and two traced runs export byte-identical JSONL.
TEST(KernelDigest, TracerDoesNotPerturbDispatch) {
  const RunArtifacts a = run_quickstart(/*trace=*/true);
  EXPECT_EQ(a.digest, kQuickstartDigest);
  EXPECT_EQ(a.dispatched, kQuickstartDispatched);
  EXPECT_EQ(fnv1a(a.user_log), kQuickstartUserLogHash);
  EXPECT_EQ(a.detsan_violations, 0u);
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(run_quickstart(/*trace=*/true).trace_jsonl, a.trace_jsonl);
}

}  // namespace
