#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/startd.h"
#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/core/vanilla_runner.h"
#include "condorg/gsi/myproxy.h"
#include "condorg/workloads/grid_builder.h"

namespace ca = condorg::classad;
namespace cc = condorg::condor;
namespace core = condorg::core;
namespace cw = condorg::workloads;
namespace cs = condorg::sim;
namespace gsi = condorg::gsi;

namespace {

/// Two-site grid + one agent, the standard rig for these tests.
struct AgentFixture : public ::testing::Test {
  AgentFixture() : testbed(42) {
    cw::SiteSpec pbs;
    pbs.name = "pbs.anl.gov";
    pbs.kind = cw::SiteKind::kPbs;
    pbs.cpus = 8;
    testbed.add_site(pbs);
    cw::SiteSpec lsf;
    lsf.name = "lsf.ncsa.edu";
    lsf.kind = cw::SiteKind::kLsf;
    lsf.cpus = 8;
    testbed.add_site(lsf);
    testbed.add_submit_host("submit.wisc.edu");
    agent = std::make_unique<core::CondorGAgent>(testbed.world(),
                                                 "submit.wisc.edu");
    agent->set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
    agent->start();
  }

  core::JobDescription grid_job(double runtime = 300.0) {
    core::JobDescription desc;
    desc.universe = core::Universe::kGrid;
    desc.runtime_seconds = runtime;
    desc.output_size = 2048;
    return desc;
  }

  /// Run until all queue entries are terminal or sim time passes deadline.
  void run_to_completion(double deadline) {
    while (!agent->schedd().all_terminal() &&
           testbed.world().now() < deadline) {
      if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) {
        break;
      }
    }
  }

  std::size_t total_site_executions() const {
    std::size_t n = 0;
    for (const auto& site : testbed.sites()) {
      for (const auto& record : site->scheduler->history()) {
        if (record.state == condorg::batch::JobState::kCompleted) ++n;
      }
    }
    return n;
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
};

}  // namespace

// ---------- Schedd ----------

TEST(Schedd, SubmitQueryAndLog) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  core::JobDescription desc;
  desc.owner = "miron";
  const auto id = schedd.submit(desc);
  ASSERT_TRUE(schedd.query(id).has_value());
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kIdle);
  EXPECT_EQ(schedd.query(id)->desc.owner, "miron");
  EXPECT_EQ(schedd.log().count(core::LogEventKind::kSubmit), 1u);
  EXPECT_FALSE(schedd.query(999).has_value());
}

TEST(Schedd, QueueSurvivesCrash) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  const auto id = schedd.submit({});
  schedd.mark_grid_submitted(id, 7, "site", "site:1");
  host.crash();
  host.restart();
  const auto job = schedd.query(id);
  ASSERT_TRUE(job);
  EXPECT_EQ(job->gram_seq, 7u);
  EXPECT_EQ(job->gram_contact, "site:1");
  EXPECT_EQ(job->status, core::JobStatus::kRunning);
  // Fresh submissions after recovery get new ids (persisted counter).
  EXPECT_GT(schedd.submit({}), id);
}

TEST(Schedd, HoldReleaseRemoveLifecycle) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  const auto id = schedd.submit({});
  EXPECT_TRUE(schedd.hold(id, "why"));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(schedd.query(id)->hold_reason, "why");
  EXPECT_FALSE(schedd.release(999));
  EXPECT_TRUE(schedd.release(id));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kIdle);
  EXPECT_TRUE(schedd.remove(id));
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kRemoved);
  EXPECT_FALSE(schedd.remove(id));  // already removed
  EXPECT_TRUE(schedd.all_terminal());
}

TEST(Schedd, ListenersMayRegisterAndRemoveDuringNotify) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  int first = 0;
  int second = 0;
  int late = 0;
  int second_id = 0;
  int self_id = 0;
  schedd.add_queue_listener([&](const core::Job&) {
    if (++first != 1) return;
    // Mid-notify: the removed listener is skipped even in this pass, the
    // added one first hears the next mutation.
    schedd.remove_queue_listener(second_id);
    schedd.add_queue_listener([&](const core::Job&) { ++late; });
  });
  second_id = schedd.add_queue_listener([&](const core::Job&) { ++second; });
  int self_calls = 0;
  self_id = schedd.add_queue_listener([&](const core::Job&) {
    ++self_calls;
    schedd.remove_queue_listener(self_id);  // one-shot
  });
  schedd.submit({});
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(self_calls, 1);
  schedd.submit({});
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(late, 1);
  EXPECT_EQ(self_calls, 1);
}

TEST(Schedd, CompletionSendsEmail) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  core::JobDescription desc;
  desc.notify_email = true;
  const auto id = schedd.submit(desc);
  schedd.mark_completed(id);
  ASSERT_EQ(schedd.log().emails().size(), 1u);
  EXPECT_NE(schedd.log().emails()[0].subject.find("completed"),
            std::string::npos);
  // Idempotent: duplicate DONE must not double-notify.
  schedd.mark_completed(id);
  EXPECT_EQ(schedd.log().emails().size(), 1u);
}

// ---------- GridManager end-to-end ----------

TEST_F(AgentFixture, RunsBatchOfGridJobsExactlyOnce) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(agent->submit(grid_job()));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Exactly-once: 20 completed site executions, not more.
  EXPECT_EQ(total_site_executions(), 20u);
  // Output staged back for every job.
  for (const auto id : ids) {
    EXPECT_TRUE(agent->gridmanager().gass().store().contains(
        "out/" + std::to_string(id) + ".out"));
  }
  EXPECT_EQ(agent->log().count(core::LogEventKind::kTerminated), 20u);
}

TEST_F(AgentFixture, FixedSiteJobGoesToThatSite) {
  core::JobDescription desc = grid_job(100.0);
  desc.grid_site = "lsf.ncsa.edu";
  const auto id = agent->submit(desc);
  run_to_completion(10000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->query(id)->gram_site, "lsf.ncsa.edu");
  EXPECT_EQ(testbed.site(1).scheduler->history().size(), 1u);
  EXPECT_TRUE(testbed.site(0).scheduler->history().empty());
}

TEST_F(AgentFixture, RemoveCancelsRemoteJob) {
  const auto id = agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(2000.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  agent->remove(id);
  testbed.world().sim().run_until(4000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kRemoved);
}

// ---------- failure recovery (the §4.2 matrix, agent level) ----------

TEST_F(AgentFixture, F1JobManagerKillRecoveredByProbing) {
  const auto id = agent->submit(grid_job(3000.0));
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  const std::string contact = agent->query(id)->gram_contact;
  ASSERT_FALSE(contact.empty());
  // Kill the JobManager process only.
  const auto site_index = agent->query(id)->gram_site == "pbs.anl.gov" ? 0 : 1;
  ASSERT_TRUE(testbed.site(site_index).gatekeeper->kill_jobmanager(contact));
  run_to_completion(40000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent->gridmanager().jobmanager_restarts(), 1u);
  EXPECT_GE(agent->log().count(core::LogEventKind::kJobManagerLost), 1u);
  EXPECT_EQ(total_site_executions(), 1u);  // never duplicated
}

TEST_F(AgentFixture, F2SiteFrontEndCrashRecovered) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  testbed.site(0).frontend->crash();
  testbed.world().sim().schedule_at(6000.0,
                                    [&] { testbed.site(0).frontend->restart(); });
  run_to_completion(60000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, F3SubmitMachineCrashRecovered) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(agent->submit(grid_job(3000.0)));
  testbed.world().sim().run_until(1500.0);
  // Crash the whole submit machine mid-campaign; stable queue survives.
  agent->host().crash();
  testbed.world().sim().schedule_at(2500.0, [&] { agent->host().restart(); });
  run_to_completion(80000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Exactly-once even across the crash: re-driven submissions deduped.
  EXPECT_EQ(total_site_executions(), 8u);
}

TEST_F(AgentFixture, F4PartitionRiddenOut) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(desc);
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kRunning);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  testbed.world().sim().schedule_at(8000.0, [&] {
    testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                          false);
  });
  run_to_completion(60000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(total_site_executions(), 1u);
}

TEST_F(AgentFixture, DeadSiteJobResubmittedElsewhere) {
  // pbs dies permanently before the job is submitted; round-robin sends
  // job 1 there, the submit times out, and the job lands on lsf instead.
  testbed.site(0).frontend->crash();
  const auto id = agent->submit(grid_job(300.0));
  run_to_completion(80000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->query(id)->gram_site, "lsf.ncsa.edu");
  EXPECT_GE(agent->gridmanager().resubmissions(), 0u);
}

// ---------- the per-site probe (event-driven site state) ----------

namespace {

std::size_t recovery_windows_closed(core::CondorGAgent& agent) {
  return agent.host()
      .metrics()
      .histogram("gridmanager.recovery_seconds", {{"user", "user"}})
      .count();
}

}  // namespace

TEST_F(AgentFixture, LostCallbacksCompleteThroughSiteProbe) {
  // Every gram.callback to the GridManager is lost on the wire: the site
  // probe alone must carry each job to completion, exactly once.
  std::size_t dropped = 0;
  agent->host().unregister_service("gridmanager.user");
  agent->host().register_service("gridmanager.user",
                                 [&dropped](const cs::Message& m) {
                                   if (m.type == "gram.callback") ++dropped;
                                 });
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(agent->submit(grid_job(600.0)));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(total_site_executions(), 6u);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kTerminated), 6u);
  EXPECT_GE(agent->gridmanager().probes_sent(), 1u);
}

TEST_F(AgentFixture, SiteProbeRestartsDeadJobManager) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  const auto victim = agent->submit(desc);
  const auto bystander = agent->submit(desc);
  testbed.world().sim().run_until(1500.0);
  ASSERT_EQ(agent->query(victim)->remote_state, "ACTIVE");
  const std::string contact = agent->query(victim)->gram_contact;
  ASSERT_TRUE(testbed.site(0).gatekeeper->kill_jobmanager(contact));
  // The next site probe finds the JobManager DEAD behind a live gatekeeper
  // (F1) and restarts it; the bystander's JobManager is left alone.
  testbed.world().sim().run_until(1500.0 + 2 * 120.0 + 60.0);
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 1u);
  EXPECT_EQ(agent->log().count(core::LogEventKind::kJobManagerLost), 1u);
  EXPECT_NE(testbed.site(0).gatekeeper->find_jobmanager(contact), nullptr);
  EXPECT_EQ(agent->gridmanager().open_outages(), 0u);
  EXPECT_EQ(recovery_windows_closed(*agent), 1u);
  run_to_completion(40000.0);
  EXPECT_EQ(agent->query(victim)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->query(bystander)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(total_site_executions(), 2u);  // the victim ran exactly once
}

TEST_F(AgentFixture, SilentSiteOpensOneOutagePerJobAndReconnects) {
  core::JobDescription desc = grid_job(3000.0);
  desc.grid_site = "pbs.anl.gov";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(agent->submit(desc));
  testbed.world().sim().run_until(1500.0);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        true);
  // Several probe rounds go unanswered (F2/F4): each job opens exactly one
  // outage window, however many probes the silence swallows.
  testbed.world().sim().run_until(2500.0);
  EXPECT_EQ(agent->gridmanager().open_outages(), 3u);
  testbed.world().net().set_partitioned("submit.wisc.edu", "pbs.anl.gov",
                                        false);
  run_to_completion(40000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(agent->gridmanager().open_outages(), 0u);
  EXPECT_EQ(recovery_windows_closed(*agent), 3u);
  EXPECT_EQ(agent->gridmanager().jobmanager_restarts(), 0u);
  EXPECT_EQ(total_site_executions(), 3u);
}

TEST(SiteProbe, RefusedProbeOpensNoOutage) {
  gsi::Pki pki((condorg::util::Rng(5)));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  const gsi::Credential user =
      ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0);
  const gsi::Credential outsider =
      ca.issue(pki, "/O=X/CN=eve", 0.0, 30 * 86400.0);
  cw::GridTestbed testbed(11);
  cw::SiteSpec spec;
  spec.name = "pbs.anl.gov";
  spec.cpus = 8;
  spec.gatekeeper.auth.pki = &pki;
  spec.gatekeeper.auth.anchors[ca.name()] = ca.public_key();
  spec.gatekeeper.auth.gridmap.add("/O=UW/CN=jfrey", "jfrey");
  spec.gatekeeper.auth.require_auth = true;
  testbed.add_site(spec);
  testbed.add_submit_host("submit.wisc.edu");
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();
  agent.credentials().set_credential(user.delegate(pki, 0.0, 7 * 86400.0));
  core::JobDescription desc;
  desc.universe = core::Universe::kGrid;
  desc.runtime_seconds = 3000.0;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) ids.push_back(agent.submit(desc));
  testbed.world().sim().run_until(600.0);
  ASSERT_EQ(agent.query(ids[0])->remote_state, "ACTIVE");
  // The site stays up but stops accepting our identity: its probes are
  // refused, which is an answer, not silence.
  const std::uint64_t refused_before =
      testbed.site(0).gatekeeper->auth_failures();
  agent.gridmanager().set_credential_text(
      outsider.delegate(pki, 0.0, 7 * 86400.0).serialize());
  testbed.world().sim().run_until(1200.0);
  EXPECT_GE(testbed.site(0).gatekeeper->auth_failures(), refused_before + 3);
  EXPECT_EQ(agent.gridmanager().open_outages(), 0u);
  EXPECT_EQ(agent.gridmanager().jobmanager_restarts(), 0u);
  // Callbacks need no GSI: the jobs still finish, once each.
  while (!agent.schedd().all_terminal() && testbed.world().now() < 20000.0) {
    testbed.world().sim().run_until(testbed.world().now() + 100.0);
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
  }
  EXPECT_EQ(testbed.site(0).scheduler->history().size(), 2u);
  EXPECT_EQ(recovery_windows_closed(agent), 0u);
}

TEST_F(AgentFixture, ProbeCountScalesWithSitesNotJobs) {
  // 16 concurrent 3000 s jobs over two sites: one probe per site and
  // interval, where a per-job ladder would send one per job and interval.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(agent->submit(grid_job(3000.0)));
  run_to_completion(40000.0);
  for (const auto id : ids) {
    ASSERT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  }
  const double span = testbed.world().now();
  const double interval = 120.0;  // GridManagerOptions::probe_interval
  const auto per_site_rounds = static_cast<std::uint64_t>(span / interval);
  EXPECT_LE(agent->gridmanager().probes_sent(), 2 * (per_site_rounds + 2));
  EXPECT_GE(agent->gridmanager().probes_sent(), 2 * (3000 / 120 - 1));
  EXPECT_EQ(total_site_executions(), 16u);
}

TEST_F(AgentFixture, RepeatedRemoteFailureEndsInHold) {
  core::JobDescription desc = grid_job(10000.0);
  desc.grid_site = "pbs.anl.gov";
  desc.walltime_limit = 10000.0;
  desc.max_attempts = 2;
  // Site policy kills anything above 600s: the job can never finish there.
  cw::SiteSpec strict;
  strict.name = "strict.site.gov";
  strict.cpus = 4;
  strict.max_walltime = 600.0;
  testbed.add_site(strict);
  desc.grid_site = "strict.site.gov";
  const auto id = agent->submit(desc);
  run_to_completion(120000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->attempts, 2);
  EXPECT_GE(agent->log().count(core::LogEventKind::kResubmitted), 1u);
}

// ---------- CredentialManager ----------

namespace {

struct CredentialFixture : public AgentFixture {
  CredentialFixture()
      : pki(condorg::util::Rng(9)),
        ca(pki, "/CN=CA"),
        user(ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0)) {}
  gsi::Pki pki;
  gsi::CertificateAuthority ca;
  gsi::Credential user;
};

}  // namespace

TEST_F(CredentialFixture, ExpiryHoldsJobsAndEmails) {
  // Short proxy, long job: with no MyProxy the agent must hold + e-mail.
  agent->credentials().set_credential(user.delegate(pki, 0.0, 3600.0));
  const auto id = agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(2 * 3600.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  EXPECT_EQ(agent->query(id)->hold_reason,
            core::CredentialManager::kHoldReason);
  EXPECT_GE(agent->credentials().holds_issued(), 1u);
  bool email_found = false;
  for (const auto& mail : agent->log().emails()) {
    if (mail.subject.find("credential") != std::string::npos) {
      email_found = true;
    }
  }
  EXPECT_TRUE(email_found);
}

TEST_F(CredentialFixture, AlarmEmailBeforeExpiry) {
  agent->credentials().set_credential(user.delegate(pki, 0.0, 4 * 3600.0));
  agent->submit(grid_job(100000.0));
  testbed.world().sim().run_until(3 * 3600.0);
  EXPECT_GE(agent->credentials().alarms_sent(), 1u);
}

TEST_F(CredentialFixture, ManualRefreshReleasesHeldJobs) {
  agent->credentials().set_credential(user.delegate(pki, 0.0, 3600.0));
  const auto id = agent->submit(grid_job(10000.0));
  testbed.world().sim().run_until(2 * 3600.0);
  ASSERT_EQ(agent->query(id)->status, core::JobStatus::kHeld);
  // grid-proxy-init again:
  agent->credentials().set_credential(
      user.delegate(pki, testbed.world().now(), 12 * 3600.0));
  run_to_completion(testbed.world().now() + 20000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent->log().count(core::LogEventKind::kReleased), 1u);
}

TEST_F(CredentialFixture, MyProxyAutoRefreshKeepsJobsRunning) {
  // Store a week-long credential in MyProxy; the agent refreshes short
  // proxies from it automatically, so a long campaign never holds.
  gsi::MyProxyServer myproxy(testbed.world().add_host("myproxy.ncsa.edu"),
                             testbed.world().net(), pki);
  {
    gsi::MyProxyClient boot(agent->host(), testbed.world().net(),
                            "test.myproxy.boot");
    boot.store(myproxy.address(), "jfrey", "pw",
               user.delegate(pki, 0.0, 7 * 86400.0), [](bool) {});
    testbed.world().sim().run_until(10.0);
  }

  core::AgentOptions options;
  options.user = "jfrey2";
  options.credentials.use_myproxy = true;
  options.credentials.myproxy_server = myproxy.address();
  options.credentials.myproxy_user = "jfrey";
  options.credentials.myproxy_passphrase = "pw";
  options.credentials.scan_interval = 300.0;
  options.credentials.refresh_threshold = 1800.0;
  options.credentials.refresh_lifetime = 3600.0;
  testbed.add_submit_host("submit2.wisc.edu");
  core::CondorGAgent agent2(testbed.world(), "submit2.wisc.edu", options);
  agent2.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent2.start();
  agent2.credentials().set_credential(
      user.delegate(pki, testbed.world().now(), 3600.0));

  // 20 hours of work: far beyond any single proxy's lifetime.
  const auto id = agent2.submit([&] {
    core::JobDescription d;
    d.universe = core::Universe::kGrid;
    d.runtime_seconds = 20 * 3600.0;
    return d;
  }());
  while (!agent2.schedd().all_terminal() &&
         testbed.world().now() < 40 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 600.0)) {
      break;
    }
  }
  EXPECT_EQ(agent2.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(agent2.credentials().refreshes(), 10u);
  EXPECT_EQ(agent2.credentials().holds_issued(), 0u);
  EXPECT_GE(myproxy.proxies_issued(), 10u);
}

// ---------- brokers ----------

TEST(Broker, StaticChooserRoundRobins) {
  auto chooser = core::make_static_chooser(
      {{"a", "gk"}, {"b", "gk"}, {"c", "gk"}});
  std::vector<std::string> picks;
  core::Job job;
  for (int i = 0; i < 6; ++i) {
    chooser(job, [&](std::optional<cs::Address> addr) {
      picks.push_back(addr->host);
    });
  }
  EXPECT_EQ(picks, (std::vector<std::string>{"a", "b", "c", "a", "b", "c"}));
}

TEST(Broker, EmptyStaticChooserRefuses) {
  auto chooser = core::make_static_chooser({});
  bool got = true;
  chooser(core::Job{}, [&](std::optional<cs::Address> addr) {
    got = addr.has_value();
  });
  EXPECT_FALSE(got);
}

TEST(Broker, RandomChooserCoversAllSites) {
  auto chooser = core::make_random_chooser(
      {{"a", "gk"}, {"b", "gk"}, {"c", "gk"}}, condorg::util::Rng(3));
  std::set<std::string> seen;
  for (int i = 0; i < 60; ++i) {
    chooser(core::Job{}, [&](std::optional<cs::Address> addr) {
      seen.insert(addr->host);
    });
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Broker, MdsBrokerRanksAndFilters) {
  cw::GridTestbed testbed(11);
  cw::SiteSpec small;
  small.name = "small.site";
  small.cpus = 2;
  testbed.add_site(small);
  cw::SiteSpec big;
  big.name = "big.site";
  big.cpus = 64;
  testbed.add_site(big);
  testbed.enable_mds("giis.grid.org");
  cs::Host& submit = testbed.add_submit_host("submit");
  testbed.world().sim().run_until(10.0);  // ads registered

  core::MdsBroker broker(submit, testbed.world().net(),
                         {"giis.grid.org", condorg::mds::GiisServer::kService});
  core::Job job;
  job.desc.ad.insert_expr("Requirements", "other.FreeCpus >= 1");
  job.desc.ad.insert_expr("Rank", "other.FreeCpus");
  std::optional<cs::Address> choice;
  broker.chooser()(job, [&](std::optional<cs::Address> addr) { choice = addr; });
  testbed.world().sim().run_until(20.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->host, "big.site");

  // A job nothing satisfies is refused.
  core::Job picky;
  picky.desc.ad.insert_expr("Requirements", "other.FreeCpus > 1000");
  bool refused = false;
  broker.chooser()(picky, [&](std::optional<cs::Address> addr) {
    refused = !addr.has_value();
  });
  testbed.world().sim().run_until(30.0);
  EXPECT_TRUE(refused);
  EXPECT_GE(broker.queries_sent(), 1u);
}

// ---------- GlideIn + vanilla universe ----------

TEST(GlideIn, VanillaJobsRunOnGlidedInSlots) {
  cw::GridTestbed testbed(13);
  cw::SiteSpec site;
  site.name = "pool.wisc.edu";
  site.cpus = 16;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions glidein_options;
  glidein_options.walltime = 6 * 3600.0;
  glidein_options.idle_timeout = 1200.0;
  glidein_options.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(glidein_options);
  glideins.add_site(core::GlideInSite{"pool.wisc.edu",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 8, 1});
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = 1800.0;
    ids.push_back(agent.submit(desc));
  }
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 12 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 120.0)) {
      break;
    }
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_GE(glideins.glideins_started(), 1u);
  EXPECT_LE(glideins.glideins_submitted(), 8u);  // bounded by site cap

  // After the queue drains, idle daemons shut themselves down and the
  // site's batch slots are released.
  testbed.world().sim().run_until(testbed.world().now() + 4 * 3600.0);
  EXPECT_EQ(glideins.live_glideins(), 0u);
  EXPECT_GE(glideins.glideins_exited(), glideins.glideins_started());
}

TEST(GlideIn, BinaryRepositoryFetchPrecedesStartd) {
  cw::GridTestbed testbed(17);
  cw::SiteSpec site;
  site.name = "site.a";
  site.cpus = 4;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  // Central repository with the condor binaries.
  condorg::gass::FileService repo(testbed.world().add_host("repo.wisc.edu"),
                                  testbed.world().net(), "gridftp");
  repo.store().put("condor/startd-bundle", "BINARIES", 20 << 20);

  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions options;
  options.binary_repository = repo.address();
  options.tick_interval = 60.0;
  auto& glideins = agent.enable_glideins(options);
  glideins.add_site(core::GlideInSite{"site.a",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 4, 1});
  agent.start();

  core::JobDescription desc;
  desc.universe = core::Universe::kVanilla;
  desc.runtime_seconds = 600.0;
  const auto id = agent.submit(desc);
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 4 * 3600.0) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 60.0)) break;
  }
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_GE(repo.gets_served(), 1u);  // binaries really were fetched
}

// ---------- VanillaRunner job-ad cache ----------

namespace {

struct VanillaPoolFixture : public ::testing::Test {
  VanillaPoolFixture()
      : submit(world.add_host("submit")),
        node1(world.add_host("node1")),
        node2(world.add_host("node2")),
        schedd(submit),
        collector(submit, world.net()),
        runner(schedd, world.net(), collector) {}

  std::unique_ptr<cc::Startd> add_startd(cs::Host& node, int mips,
                                         double expires_at = 1e18) {
    cc::StartdOptions options;
    options.collector = collector.address();
    options.advertise_period = 60.0;
    options.checkpoint_interval = 100.0;
    options.allocation_expires_at = expires_at;
    options.base_ad = ca::parse_ad("[Arch = \"X86_64\"; Mips = " +
                                   std::to_string(mips) + "]");
    return std::make_unique<cc::Startd>(node, world.net(),
                                        "slot1@" + node.name(), options);
  }

  std::uint64_t submit_vanilla(double runtime,
                               const std::string& requirements = "") {
    core::JobDescription desc;
    desc.universe = core::Universe::kVanilla;
    desc.runtime_seconds = runtime;
    desc.ad.insert_expr("Rank", "other.Mips");
    if (!requirements.empty()) {
      desc.ad.insert_expr("Requirements", requirements);
    }
    return schedd.submit(desc);
  }

  bool terminal(std::uint64_t id) const {
    const auto status = schedd.query(id)->status;
    return status == core::JobStatus::kCompleted ||
           status == core::JobStatus::kRemoved;
  }

  /// Steps the world until every job is terminal, checking after each step
  /// that no terminal job keeps a cached ad.
  void run_to_completion(double horizon) {
    while (!schedd.all_terminal() && world.now() < horizon) {
      world.sim().run_until(world.now() + 30.0);
      // lint-allow(schedd-full-scan): the test checks every job
      for (const auto& [id, job] : schedd.jobs()) {
        if (terminal(id)) {
          EXPECT_EQ(runner.cached_job_ad(id), nullptr) << "job " << id;
        }
      }
    }
  }

  std::size_t count_events(std::uint64_t id, core::LogEventKind kind) const {
    std::size_t n = 0;
    for (const auto& event : schedd.log().events_for(id)) {
      if (event.kind == kind) ++n;
    }
    return n;
  }

  cs::World world;
  cs::Host& submit;
  cs::Host& node1;
  cs::Host& node2;
  core::Schedd schedd;
  cc::Collector collector;
  core::VanillaRunner runner;
};

}  // namespace

TEST_F(VanillaPoolFixture, TerminalJobsLeaveTheAdCache) {
  const auto s1 = add_startd(node1, 200);
  const auto s2 = add_startd(node2, 100);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(submit_vanilla(300.0));
  const std::uint64_t stuck = submit_vanilla(300.0, "other.Mips > 1000000");
  runner.start();
  // The t=0 cycle finds no advertised slot and lists nothing; the t=60
  // cycle lists (and caches) all four idle jobs.
  EXPECT_EQ(runner.cached_job_ads(), 0u);
  world.sim().run_until(70.0);
  EXPECT_EQ(runner.cached_job_ads(), 4u);

  while (world.now() < 5000.0 && !std::all_of(ids.begin(), ids.end(),
                                               [&](auto id) {
                                                 return terminal(id);
                                               })) {
    world.sim().run_until(world.now() + 30.0);
  }
  for (const auto id : ids) {
    EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kCompleted);
    EXPECT_EQ(runner.cached_job_ad(id), nullptr);
  }
  ASSERT_NE(runner.cached_job_ad(stuck), nullptr);  // idle, still listed
  EXPECT_EQ(runner.cached_job_ads(), 1u);
  ASSERT_TRUE(schedd.remove(stuck));
  EXPECT_EQ(runner.cached_job_ads(), 0u);  // dropped at the transition
}

TEST_F(VanillaPoolFixture, EvictedJobMatchesAgainWithTheSameAd) {
  // The job ranks node1 first; node1's allocation ends mid-run, evicting it
  // with a checkpoint, and the requeued job must land on node2.
  const auto s1 = add_startd(node1, 200, /*expires_at=*/400.0);
  const auto s2 = add_startd(node2, 100);
  const std::uint64_t id = submit_vanilla(1000.0);
  runner.start();
  world.sim().run_until(70.0);
  const auto ad = runner.cached_job_ad(id);
  ASSERT_NE(ad, nullptr);
  EXPECT_EQ(ad->unparse(),
            core::broker_job_ad(*schedd.query(id)).unparse());

  while (count_events(id, core::LogEventKind::kEvicted) == 0 ||
         schedd.query(id)->status != core::JobStatus::kRunning) {
    ASSERT_LT(world.now(), 3000.0);
    world.sim().run_until(world.now() + 30.0);
    ASSERT_EQ(runner.cached_job_ad(id), ad);  // never rebuilt
  }
  EXPECT_TRUE(s1->exited());
  EXPECT_EQ(s2->state(), cc::Startd::State::kRunning);

  run_to_completion(5000.0);
  EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(count_events(id, core::LogEventKind::kTerminated), 1u);
  EXPECT_EQ(runner.cached_job_ads(), 0u);
}

TEST_F(VanillaPoolFixture, SubmitHostCrashClearsAdCacheJobsRunOnce) {
  const auto s1 = add_startd(node1, 200);
  const auto s2 = add_startd(node2, 100);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(submit_vanilla(300.0));
  runner.start();
  world.sim().run_until(130.0);  // two running, the rest idle and cached
  ASSERT_GT(runner.cached_job_ads(), 0u);
  submit.crash_for(120.0);
  EXPECT_EQ(runner.cached_job_ads(), 0u);

  run_to_completion(20000.0);
  for (const auto id : ids) {
    EXPECT_EQ(schedd.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
    EXPECT_EQ(count_events(id, core::LogEventKind::kTerminated), 1u)
        << "job " << id;
  }
  EXPECT_EQ(runner.cached_job_ads(), 0u);
}

// ---------- DAGMan ----------

namespace {

core::JobDescription quick_grid_job(double runtime = 120.0) {
  core::JobDescription desc;
  desc.universe = core::Universe::kGrid;
  desc.runtime_seconds = runtime;
  return desc;
}

}  // namespace

TEST_F(AgentFixture, DagRunsInDependencyOrder) {
  core::Dag dag;
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c", "d"}) {
    core::DagNode node;
    node.name = name;
    node.job = quick_grid_job();
    node.post = [&order, name] { order.emplace_back(name); };
    dag.add_node(std::move(node));
  }
  // diamond: a -> {b, c} -> d
  dag.add_edge("a", "b");
  dag.add_edge("a", "c");
  dag.add_edge("b", "d");
  dag.add_edge("c", "d");
  auto dagman = agent->make_dagman(std::move(dag));
  bool success = false;
  dagman->on_finished([&](bool ok) { success = ok; });
  dagman->start();
  run_to_completion(40000.0);
  ASSERT_TRUE(dagman->complete());
  EXPECT_TRUE(success);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "d");
  EXPECT_EQ(dagman->nodes_done(), 4u);
}

TEST_F(AgentFixture, DagThrottleLimitsInFlightJobs) {
  core::Dag dag;
  for (int i = 0; i < 10; ++i) {
    core::DagNode node;
    node.name = "n" + std::to_string(i);
    node.job = quick_grid_job(600.0);
    dag.add_node(std::move(node));
  }
  core::DagManOptions options;
  options.max_jobs_in_flight = 3;
  auto dagman = agent->make_dagman(std::move(dag), options);
  dagman->start();
  // At no instant may more than 3 node jobs be non-terminal.
  std::size_t max_active = 0;
  while (!dagman->complete() && testbed.world().now() < 80000.0) {
    testbed.world().sim().run_until(testbed.world().now() + 60.0);
    max_active = std::max(max_active, agent->schedd().active_count());
  }
  EXPECT_TRUE(dagman->complete());
  EXPECT_LE(max_active, 3u);
}

TEST(Dag, CycleDetected) {
  cs::World world;
  core::Schedd schedd(world.add_host("submit"));
  core::Dag dag;
  for (const char* name : {"x", "y"}) {
    core::DagNode node;
    node.name = name;
    dag.add_node(std::move(node));
  }
  dag.add_edge("x", "y");
  dag.add_edge("y", "x");
  core::DagMan dagman(schedd, std::move(dag));
  EXPECT_THROW(dagman.start(), std::invalid_argument);
}

TEST(Dag, BadEdgesAndDuplicatesRejected) {
  core::Dag dag;
  core::DagNode node;
  node.name = "a";
  dag.add_node(node);
  EXPECT_THROW(dag.add_node(node), std::invalid_argument);
  EXPECT_THROW(dag.add_edge("a", "nope"), std::invalid_argument);
}

// ---------- queued-job migration (§4.4 enhancement) ----------

TEST(Migration, PendingTooLongMovesToFreeSite) {
  // Site A is fully occupied by an endless local job; site B is idle. With
  // max_pending_seconds set, a job parked in A's queue is cancelled there
  // and re-brokered to B.
  cw::GridTestbed testbed(55);
  cw::SiteSpec a;
  a.name = "busy.site";
  a.cpus = 2;
  testbed.add_site(a);
  cw::SiteSpec b;
  b.name = "idle.site";
  b.cpus = 2;
  testbed.add_site(b);
  // Occupy site A completely for a very long time.
  condorg::batch::JobRequest hog;
  hog.owner = "local";
  hog.cpus = 2;
  hog.runtime_seconds = 1e7;
  testbed.site(0).scheduler->submit(hog);

  core::AgentOptions options;
  options.gridmanager.max_pending_seconds = 1800.0;
  options.gridmanager.probe_interval = 300.0;
  core::CondorGAgent agent(testbed.world(), "submit", [&] {
    testbed.add_submit_host("submit");
    return options;
  }());
  // Force the first choice to the busy site, then round-robin.
  agent.set_site_chooser(core::make_static_chooser(
      {testbed.site(0).gatekeeper_address(),
       testbed.site(1).gatekeeper_address()}));
  agent.start();

  core::JobDescription job;
  job.universe = core::Universe::kGrid;
  job.runtime_seconds = 600.0;
  const auto id = agent.submit(job);

  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 300.0);
  }
  EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent.query(id)->gram_site, "idle.site");
  EXPECT_GE(agent.gridmanager().queued_migrations(), 1u);
  // The abandoned copy at the busy site was cancelled, never run.
  for (const auto& record : testbed.site(0).scheduler->history()) {
    if (record.request.owner == "gram") {
      EXPECT_NE(record.state, condorg::batch::JobState::kCompleted);
    }
  }
}

TEST(Migration, DisabledByDefault) {
  cw::GridTestbed testbed(56);
  cw::SiteSpec a;
  a.name = "busy.site";
  a.cpus = 1;
  testbed.add_site(a);
  condorg::batch::JobRequest hog;
  hog.owner = "local";
  hog.runtime_seconds = 7200.0;
  testbed.site(0).scheduler->submit(hog);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  agent.set_site_chooser(
      core::make_static_chooser({testbed.site(0).gatekeeper_address()}));
  agent.start();
  core::JobDescription job;
  job.universe = core::Universe::kGrid;
  job.runtime_seconds = 600.0;
  const auto id = agent.submit(job);
  testbed.world().sim().run_until(3600.0);
  // Still queued at the busy site: no migration machinery fired.
  EXPECT_EQ(agent.gridmanager().queued_migrations(), 0u);
  EXPECT_EQ(agent.query(id)->remote_state, "PENDING");
}

// ---------- preemptible glide-in slots ----------

TEST(GlideIn, PreemptibleSlotsEvictAndJobsStillFinish) {
  cw::GridTestbed testbed(61);
  cw::SiteSpec site;
  site.name = "pool.site.edu";
  site.cpus = 16;
  testbed.add_site(site);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  core::GlideInOptions options;
  options.walltime = 24 * 3600.0;
  options.idle_timeout = 1800.0;
  options.tick_interval = 120.0;
  options.checkpoint_interval = 300.0;
  // Aggressive reclaim: slots available ~1h, reclaimed ~30min.
  options.mean_slot_available_seconds = 3600.0;
  options.mean_slot_reclaimed_seconds = 1800.0;
  auto& glideins = agent.enable_glideins(options);
  glideins.add_site(core::GlideInSite{"pool.site.edu",
                                      testbed.site(0).gatekeeper_address(),
                                      testbed.site(0).cluster, 8, 1});
  agent.start();

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kVanilla;
    job.runtime_seconds = 2 * 3600.0;  // longer than mean availability
    ids.push_back(agent.submit(job));
  }
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 4 * 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 300.0);
  }
  for (const auto id : ids) {
    EXPECT_EQ(agent.query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  // Preemption definitely happened, and checkpoints carried work across it.
  EXPECT_GE(agent.log().count(core::LogEventKind::kEvicted), 1u);
}

// ---------- Schedd secondary indexes ----------

namespace {

/// Brute-force (universe, status) id sets from a full queue scan, the
/// oracle the secondary indexes must always agree with.
void expect_index_matches_scan(const core::Schedd& schedd) {
  for (const core::Universe universe :
       {core::Universe::kGrid, core::Universe::kVanilla}) {
    for (const core::JobStatus status :
         {core::JobStatus::kIdle, core::JobStatus::kRunning,
          core::JobStatus::kCompleted, core::JobStatus::kHeld,
          core::JobStatus::kRemoved}) {
      std::vector<std::uint64_t> brute;
      for (const auto& [id, job] : schedd.jobs()) {
        if (job.desc.universe == universe && job.status == status) {
          brute.push_back(id);
        }
      }
      EXPECT_EQ(schedd.count(universe, status), brute.size());
      if (status == core::JobStatus::kIdle) {
        EXPECT_EQ(schedd.idle_jobs(universe), brute);
      }
    }
  }
  for (const core::JobStatus status :
       {core::JobStatus::kIdle, core::JobStatus::kRunning,
        core::JobStatus::kCompleted, core::JobStatus::kHeld,
        core::JobStatus::kRemoved}) {
    std::vector<std::uint64_t> brute;
    for (const auto& [id, job] : schedd.jobs()) {
      if (job.status == status) brute.push_back(id);
    }
    EXPECT_EQ(schedd.jobs_with_status(status), brute);
    EXPECT_EQ(schedd.count(status), brute.size());
  }
}

}  // namespace

TEST(ScheddIndex, RandomizedTransitionsMatchBruteForceScan) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  condorg::util::Rng rng(77);
  const core::JobStatus kStatuses[] = {
      core::JobStatus::kIdle, core::JobStatus::kRunning,
      core::JobStatus::kCompleted, core::JobStatus::kHeld,
      core::JobStatus::kRemoved};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    core::JobDescription desc;
    desc.universe = rng.below(2) == 0 ? core::Universe::kGrid
                                      : core::Universe::kVanilla;
    ids.push_back(schedd.submit(desc));
  }
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t id = ids[rng.below(ids.size())];
    const core::JobStatus next = kStatuses[rng.below(5)];
    schedd.with_job(id, [next](core::Job& job) {
      job.status = next;
      if (next == core::JobStatus::kHeld) job.hold_reason = "test";
    });
    if (step % 250 == 0) expect_index_matches_scan(schedd);
  }
  expect_index_matches_scan(schedd);
  std::vector<std::string> problems;
  schedd.audit(problems);
  for (const std::string& problem : problems) {
    EXPECT_TRUE(problem.find("index") == std::string::npos &&
                problem.find("count cache") == std::string::npos)
        << problem;
  }
  // The index-size gauge tracks the queue size.
  EXPECT_EQ(host.metrics()
                .gauge("schedd_index_size", {{"host", "submit"}})
                .value(),
            static_cast<double>(ids.size()));
}

TEST(ScheddIndex, ReloadAfterCrashRebuildsIndexes) {
  cs::World world;
  cs::Host& host = world.add_host("submit");
  core::Schedd schedd(host);
  core::JobDescription vanilla;
  vanilla.universe = core::Universe::kVanilla;
  const auto a = schedd.submit(vanilla);
  core::JobDescription grid;
  grid.universe = core::Universe::kGrid;
  const auto b = schedd.submit(grid);
  const auto c = schedd.submit(grid);
  schedd.mark_grid_submitted(b, 1, "site", "site:1");
  schedd.mark_completed(b);
  schedd.hold(c, "why");
  host.crash();
  host.restart();
  expect_index_matches_scan(schedd);
  EXPECT_EQ(schedd.idle_jobs(core::Universe::kGrid).size(), 0u);
  EXPECT_EQ(schedd.count(core::Universe::kGrid, core::JobStatus::kCompleted),
            1u);
  EXPECT_EQ(schedd.count(core::Universe::kGrid, core::JobStatus::kHeld), 1u);
  (void)a;
}

// ---------- pipelined submission ----------

namespace {

/// One 8-cpu site + an agent with a tight per-site pipeline cap.
struct PipelineFixture : public ::testing::Test {
  static constexpr std::size_t kCap = 4;

  PipelineFixture() : testbed(42) {
    cw::SiteSpec pbs;
    pbs.name = "pbs.anl.gov";
    pbs.kind = cw::SiteKind::kPbs;
    pbs.cpus = 8;
    testbed.add_site(pbs);
    cw::SiteSpec lsf;
    lsf.name = "lsf.ncsa.edu";
    lsf.kind = cw::SiteKind::kLsf;
    lsf.cpus = 8;
    testbed.add_site(lsf);
    testbed.add_submit_host("submit.wisc.edu");
    core::AgentOptions options;
    options.gridmanager.max_pending_per_site = kCap;
    agent = std::make_unique<core::CondorGAgent>(testbed.world(),
                                                 "submit.wisc.edu", options);
    agent->set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
    agent->start();
  }

  core::JobDescription grid_job(double runtime = 300.0) {
    core::JobDescription desc;
    desc.universe = core::Universe::kGrid;
    desc.runtime_seconds = runtime;
    desc.output_size = 2048;
    return desc;
  }

  void run_to_completion(double deadline) {
    while (!agent->schedd().all_terminal() &&
           testbed.world().now() < deadline) {
      if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) {
        break;
      }
    }
  }

  std::size_t total_site_executions() const {
    std::size_t n = 0;
    for (const auto& site : testbed.sites()) {
      for (const auto& record : site->scheduler->history()) {
        if (record.state == condorg::batch::JobState::kCompleted) ++n;
      }
    }
    return n;
  }

  cw::GridTestbed testbed;
  std::unique_ptr<core::CondorGAgent> agent;
};

}  // namespace

TEST_F(PipelineFixture, StormRespectsPerSiteDepthCapAndCompletes) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 40; ++i) ids.push_back(agent->submit(grid_job()));
  run_to_completion(120000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(total_site_executions(), 40u);
  // The depth gauge never exceeded the configured cap at either site.
  for (const char* site : {"pbs.anl.gov", "lsf.ncsa.edu"}) {
    EXPECT_LE(agent->host()
                  .metrics()
                  .gauge("submit_pipeline_depth",
                         {{"user", "user"}, {"site", site}})
                  .peak(),
              static_cast<double>(kCap))
        << site;
    EXPECT_EQ(agent->gridmanager().pipeline_depth(site), 0u) << site;
  }
  // The PENDING-at-site watch drained along with the queue (no leak).
  EXPECT_EQ(agent->gridmanager().pending_watch_size(), 0u);
}

TEST_F(PipelineFixture, SharedExecutableStagesOncePerSite) {
  // 24 jobs, one executable: the per-site cache must coalesce staging to
  // one wire transfer per site.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 24; ++i) {
    core::JobDescription desc = grid_job();
    desc.executable = "sweep.bin";
    ids.push_back(agent->submit(desc));
  }
  run_to_completion(120000.0);
  for (const auto id : ids) {
    ASSERT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(agent->gridmanager().gass().gets_served(), 2u);  // one per site

  // A different executable is a different artifact: staged afresh.
  core::JobDescription changed = grid_job();
  changed.executable = "sweep-v2.bin";
  changed.grid_site = "pbs.anl.gov";
  const auto id = agent->submit(changed);
  run_to_completion(240000.0);
  EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted);
  EXPECT_EQ(agent->gridmanager().gass().gets_served(), 3u);
  // Cache metrics surfaced per site.
  std::uint64_t hits = 0;
  for (const char* site : {"pbs.anl.gov", "lsf.ncsa.edu"}) {
    hits += testbed.world()
                .sim()
                .metrics()
                .counter_value("staging_cache_hits{site=" +
                               std::string(site) + "}");
  }
  EXPECT_EQ(hits, 22u);  // 25 stage-ins, 3 wire transfers
}

TEST_F(PipelineFixture, SubmitMachineCrashMidStormStaysExactlyOnce) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(agent->submit(grid_job(600.0)));
  // Crash while the first pipeline of submits is still in flight, before
  // most acks landed; the persisted seqs must re-drive without duplicates.
  testbed.world().sim().schedule_at(60.5, [&] { agent->host().crash(); });
  testbed.world().sim().schedule_at(100.0, [&] { agent->host().restart(); });
  run_to_completion(240000.0);
  for (const auto id : ids) {
    EXPECT_EQ(agent->query(id)->status, core::JobStatus::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(total_site_executions(), 12u);
  EXPECT_EQ(agent->gridmanager().pending_watch_size(), 0u);
}
