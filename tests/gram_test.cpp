#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "condorg/batch/fifo_scheduler.h"
#include "condorg/gass/file_service.h"
#include "condorg/gram/client.h"
#include "condorg/gram/gatekeeper.h"
#include "condorg/sim/world.h"

namespace gram = condorg::gram;
namespace cb = condorg::batch;
namespace cg = condorg::gass;
namespace cs = condorg::sim;

namespace {

/// A submit machine + one GRAM site, with a GASS server holding the
/// executable and a callback sink collecting status updates.
struct GramFixture : public ::testing::Test {
  GramFixture()
      : submit(world.add_host("submit.wisc.edu")),
        site(world.add_host("gk.anl.gov")),
        cluster(std::make_unique<cb::FifoScheduler>(world.sim(), "pbs.anl",
                                                    16)),
        gatekeeper(
            std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster)),
        gass(submit, world.net(), "gass"),
        client(submit, world.net(), "jfrey") {
    gass.store().put("bin/worker", "WORKER-BINARY", 1 << 20);
    submit.register_service("gram.cb", [this](const cs::Message& m) {
      callbacks.push_back({m.body.get("contact"), m.body.get("state")});
    });
  }

  gram::GramJobSpec spec(double runtime = 300.0) {
    gram::GramJobSpec s;
    s.executable = "bin/worker";
    s.output = "out/job.out";
    s.gass_url = gass.address().str();
    s.runtime_seconds = runtime;
    s.output_size = 4096;
    return s;
  }

  /// Submit and run the world until the callback sink has seen `state`.
  std::string submit_and_await(const std::string& state,
                               double deadline = 4000.0) {
    std::string contact;
    client.submit(gatekeeper->address(), spec(), {"submit.wisc.edu", "gram.cb"},
                  [&](std::optional<std::string> c) { contact = c.value_or(""); });
    await_state(state, deadline);
    return contact;
  }

  bool saw_state(const std::string& state) const {
    for (const auto& [contact, s] : callbacks) {
      if (s == state) return true;
    }
    return false;
  }

  void await_state(const std::string& state, double deadline) {
    while (!saw_state(state) && world.now() < deadline) {
      if (!world.sim().run_until(world.now() + 10.0)) break;
    }
  }

  cs::World world;
  cs::Host& submit;
  cs::Host& site;
  std::unique_ptr<cb::FifoScheduler> cluster;
  std::unique_ptr<gram::Gatekeeper> gatekeeper;
  cg::FileService gass;
  gram::GramClient client;
  std::vector<std::pair<std::string, std::string>> callbacks;
};

}  // namespace

// ---------- happy path ----------

TEST_F(GramFixture, SubmitRunsJobToCompletion) {
  const std::string contact = submit_and_await("DONE");
  EXPECT_FALSE(contact.empty());
  EXPECT_TRUE(saw_state("PENDING"));
  EXPECT_TRUE(saw_state("ACTIVE"));
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(gatekeeper->submissions_accepted(), 1u);
  // Output was staged back to the client's GASS server before DONE.
  EXPECT_TRUE(gass.store().contains("out/job.out"));
  EXPECT_EQ(gass.store().get("out/job.out")->size(), 4096u);
  // Exactly one local execution.
  EXPECT_EQ(cluster->history().size(), 1u);
}

TEST_F(GramFixture, StatusPollReflectsProgress) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  // The site probe reports each listed contact's JobManager state; a
  // contact the site never issued reads as DEAD.
  gram::ProbeResult result;
  client.probe_jobs(gatekeeper->address(), {contact, "gk.anl.gov:999"},
                    [&](const gram::ProbeResult& r) { result = r; });
  world.sim().run_until(world.now() + 20.0);
  ASSERT_EQ(result.outcome, gram::ProbeResult::Outcome::kAnswered);
  EXPECT_EQ(result.states[contact], "ACTIVE");
  EXPECT_EQ(result.states["gk.anl.gov:999"], gram::kProbeDead);
}

TEST_F(GramFixture, ActiveReportedAtLocalStart) {
  // A job that must queue behind a full cluster reports ACTIVE the moment
  // the local scheduler starts it, not at the next poll of the queue.
  gatekeeper.reset();  // unregister before the replacement registers
  cluster = std::make_unique<cb::FifoScheduler>(world.sim(), "pbs.anl", 1);
  gatekeeper = std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster);
  std::map<std::string, double> active_at;
  submit.register_service("gram.cb2", [&](const cs::Message& m) {
    if (m.body.get("state") == "ACTIVE") {
      active_at.emplace(m.body.get("contact"), world.now());
    }
  });
  for (int i = 0; i < 2; ++i) {
    client.submit(gatekeeper->address(), spec(100.0),
                  {"submit.wisc.edu", "gram.cb2"},
                  [](std::optional<std::string>) {});
  }
  world.sim().run_until(2000.0);
  ASSERT_EQ(cluster->history().size(), 2u);
  ASSERT_EQ(active_at.size(), 2u);
  for (const cb::JobRecord& record : cluster->history()) {
    const auto it = active_at.find(record.request.tag);
    ASSERT_NE(it, active_at.end()) << record.request.tag;
    // One callback hop after the local start, never a poll quantum later.
    EXPECT_GE(it->second, record.start_time);
    EXPECT_LT(it->second, record.start_time + 1.0) << record.request.tag;
  }
}

TEST_F(GramFixture, CancelTerminatesJob) {
  const std::string contact = submit_and_await("ACTIVE");
  bool cancelled = false;
  client.cancel(contact, [&](bool ok) { cancelled = ok; });
  await_state("FAILED", world.now() + 500.0);
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().back().state, cb::JobState::kCancelled);
}

TEST_F(GramFixture, SitePolicyCapsWalltime) {
  gram::GatekeeperOptions options;
  options.max_walltime = 100.0;  // site caps runtime
  gatekeeper.reset();  // unregister before the replacement registers
  gatekeeper = std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster,
                                                  options);
  std::string contact;
  client.submit(gatekeeper->address(), spec(1000.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  await_state("FAILED", 4000.0);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().back().state,
            cb::JobState::kWalltimeExceeded);
}

TEST_F(GramFixture, MissingExecutableFailsJob) {
  gass.store().erase("bin/worker");
  gram::GramClientOptions fast;
  fast.retry_delay = 5.0;
  gram::GramClient impatient(submit, world.net(), "jfrey2", fast);
  std::string contact;
  impatient.submit(gatekeeper->address(), spec(),
                   {"submit.wisc.edu", "gram.cb"},
                   [&](std::optional<std::string> c) { contact = c.value_or(""); });
  // Staging retries 30x with 60s delay; fail arrives within ~2000s.
  await_state("FAILED", 30000.0);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().size(), 0u);  // never reached the scheduler
}

// ---------- two-phase commit / exactly-once ----------

TEST_F(GramFixture, LostResponsesDoNotDuplicateJobs) {
  // 30% message loss between submit machine and site.
  cs::LinkConfig lossy;
  lossy.loss_probability = 0.30;
  world.net().set_link("submit.wisc.edu", "gk.anl.gov", lossy);
  gram::GramClientOptions options;
  options.retry_delay = 10.0;
  gram::GramClient lossy_client(submit, world.net(), "lossy", options);

  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    lossy_client.submit(gatekeeper->address(), spec(100.0),
                        {"submit.wisc.edu", "gram.cb"},
                        [&](std::optional<std::string> c) {
                          if (c) ++completed;
                        });
  }
  world.sim().run();
  EXPECT_EQ(completed, 10);
  // Despite retransmissions, exactly 10 jobs entered the local scheduler.
  EXPECT_EQ(cluster->history().size(), 10u);
  EXPECT_EQ(gatekeeper->submissions_accepted(), 10u);
}

TEST_F(GramFixture, ResendWithSameSeqReturnsSameContact) {
  const std::uint64_t seq = client.allocate_seq();
  std::string first, second;
  client.submit_with_seq(seq, gatekeeper->address(), spec(50.0),
                         {"submit.wisc.edu", "gram.cb"},
                         [&](std::optional<std::string> c) { first = c.value_or(""); });
  world.sim().run_until(50.0);
  // Simulate crash recovery: re-drive the same sequence number.
  client.submit_with_seq(seq, gatekeeper->address(), spec(50.0),
                         {"submit.wisc.edu", "gram.cb"},
                         [&](std::optional<std::string> c) { second = c.value_or(""); });
  world.sim().run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster->history().size(), 1u);
  EXPECT_GE(gatekeeper->duplicate_submissions(), 1u);
  EXPECT_EQ(client.contact_for_seq(seq), first);
}

TEST_F(GramFixture, OnePhaseModeWithoutDedupDuplicatesUnderLoss) {
  // The ablation: pre-revision GRAM. Lossy link + no dedup + no commit.
  gram::GatekeeperOptions gk_options;
  gk_options.dedup_submissions = false;
  gatekeeper.reset();  // unregister before the replacement registers
  gatekeeper = std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster,
                                                  gk_options);
  cs::LinkConfig lossy;
  lossy.loss_probability = 0.5;
  world.net().set_link("submit.wisc.edu", "gk.anl.gov", lossy);

  gram::GramClientOptions options;
  options.two_phase = false;
  options.retry_delay = 5.0;
  gram::GramClient naive(submit, world.net(), "naive", options);
  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    naive.submit(gatekeeper->address(), spec(50.0),
                 {"submit.wisc.edu", "gram.cb"},
                 [&](std::optional<std::string> c) { acked += c ? 1 : 0; });
  }
  world.sim().run();
  // Lost *responses* caused retransmissions that became extra jobs.
  EXPECT_GT(cluster->history().size(), 20u);
}

// ---------- the four failure types (§4.2) ----------

TEST_F(GramFixture, F1JobManagerCrashJobSurvivesAndReattaches) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  // Kill only the JobManager process; the local job keeps running.
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  bool jm_alive = true;
  client.ping_jobmanager(contact, [&](bool ok) { jm_alive = ok; });
  world.sim().run_until(world.now() + 60.0);
  EXPECT_FALSE(jm_alive);
  // But the gatekeeper still answers, naming the JobManager DEAD
  // (distinguishes F1 from F2/F4)...
  gram::ProbeResult probe;
  client.probe_jobs(gatekeeper->address(), {contact},
                    [&](const gram::ProbeResult& r) { probe = r; });
  world.sim().run_until(world.now() + 60.0);
  EXPECT_EQ(probe.outcome, gram::ProbeResult::Outcome::kAnswered);
  EXPECT_EQ(probe.states[contact], gram::kProbeDead);
  // ...so the client asks for a JobManager restart and the job completes.
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  await_state("DONE", 4000.0);
  EXPECT_TRUE(state.has_value());
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(cluster->history().size(), 1u);  // exactly-once
}

TEST_F(GramFixture, F2SiteFrontEndCrashJobCompletesWhileDown) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  site.crash();
  // The local cluster is a separate failure domain: the job completes
  // while the front-end is down.
  world.sim().run_until(world.now() + 600.0);
  EXPECT_EQ(cluster->history().size(), 1u);
  EXPECT_EQ(cluster->history()[0].state, cb::JobState::kCompleted);
  // Front-end returns; a restarted JobManager reports DONE (after
  // re-staging output).
  site.restart();
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  await_state("DONE", world.now() + 2000.0);
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_TRUE(gass.store().contains("out/job.out"));
}

TEST_F(GramFixture, F4PartitionJobUnaffectedAndReconnects) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  world.net().set_partitioned("submit.wisc.edu", "gk.anl.gov", true);
  bool jm_alive = true;
  gram::ProbeResult probe;
  probe.outcome = gram::ProbeResult::Outcome::kAnswered;
  client.ping_jobmanager(contact, [&](bool ok) { jm_alive = ok; });
  client.probe_jobs(gatekeeper->address(), {contact},
                    [&](const gram::ProbeResult& r) { probe = r; });
  world.sim().run_until(world.now() + 60.0);
  // During a partition the client cannot distinguish F2 from F4: both
  // probes fail.
  EXPECT_FALSE(jm_alive);
  EXPECT_EQ(probe.outcome, gram::ProbeResult::Outcome::kSilent);
  // Job completes during the partition; output staging retries.
  world.sim().run_until(world.now() + 600.0);
  EXPECT_EQ(cluster->history().size(), 1u);
  world.net().set_partitioned("submit.wisc.edu", "gk.anl.gov", false);
  await_state("DONE", world.now() + 4000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

TEST_F(GramFixture, RestartUnknownContactFails) {
  std::optional<gram::GramJobState> state =
      gram::GramJobState::kActive;  // sentinel
  client.restart_jobmanager("gk.anl.gov:999", [&](auto s) { state = s; });
  world.sim().run_until(100.0);
  EXPECT_FALSE(state.has_value());
}

TEST_F(GramFixture, UpdateGassRedirectsOutput) {
  // New GASS endpoint appears (submit machine "restarted" elsewhere);
  // output must land at the new address.
  cg::FileService gass2(submit, world.net(), "gass2");
  gass2.store().put("bin/worker", "WORKER-BINARY", 1 << 20);
  const std::string contact = submit_and_await("ACTIVE");
  bool updated = false;
  client.update_gass(contact, gass2.address(), [&](bool ok) { updated = ok; });
  await_state("DONE", 4000.0);
  EXPECT_TRUE(updated);
  EXPECT_TRUE(gass2.store().contains("out/job.out"));
}

// ---------- GSI-protected gatekeeper ----------

TEST(GramAuth, UnauthorizedSubmitRejected) {
  cs::World world;
  cs::Host& submit = world.add_host("submit");
  cs::Host& site = world.add_host("site");
  cb::FifoScheduler cluster(world.sim(), "pbs", 4);

  condorg::gsi::Pki pki((condorg::util::Rng(5)));
  condorg::gsi::CertificateAuthority ca(pki, "/CN=CA");
  const auto user = ca.issue(pki, "/O=UW/CN=ok", 0.0, 86400.0);
  const auto outsider = ca.issue(pki, "/O=X/CN=eve", 0.0, 86400.0);

  gram::GatekeeperOptions options;
  options.auth.pki = &pki;
  options.auth.anchors[ca.name()] = ca.public_key();
  options.auth.gridmap.add("/O=UW/CN=ok", "okuser");
  options.auth.require_auth = true;
  gram::Gatekeeper gatekeeper(site, world.net(), cluster, options);

  cg::FileService gass(submit, world.net(), "gass");
  gass.store().put("exe", "X");

  gram::GramJobSpec spec;
  spec.executable = "exe";
  spec.gass_url = gass.address().str();
  spec.runtime_seconds = 10;
  spec.output = "";

  gram::GramClientOptions copt;
  copt.max_attempts = 1;
  gram::GramClient good(submit, world.net(), "good", copt);
  good.set_credential(user.delegate(pki, 0.0, 3600.0));
  gram::GramClient bad(submit, world.net(), "bad", copt);
  bad.set_credential(outsider.delegate(pki, 0.0, 3600.0));

  std::optional<std::string> good_contact, bad_contact;
  good.submit(gatekeeper.address(), spec, {"submit", "cb"},
              [&](auto c) { good_contact = c; });
  bad.submit(gatekeeper.address(), spec, {"submit", "cb"},
             [&](auto c) { bad_contact = c; });
  world.sim().run();
  EXPECT_TRUE(good_contact.has_value());
  EXPECT_FALSE(bad_contact.has_value());
  EXPECT_EQ(gatekeeper.auth_failures(), 1u);
  EXPECT_EQ(cluster.history().size(), 1u);
}

// ---------- additional recovery corner cases ----------

TEST_F(GramFixture, DuplicateDoneCallbacksAreIdempotent) {
  const std::string contact = submit_and_await("DONE");
  const auto done_count = [&] {
    std::size_t n = 0;
    for (const auto& [c, s] : callbacks) {
      if (s == "DONE") ++n;
    }
    return n;
  };
  const auto before = done_count();
  // A replacement JobManager for an already-terminal job re-reports DONE.
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  world.sim().run_until(world.now() + 100.0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, gram::GramJobState::kDone);
  EXPECT_GE(done_count(), before);      // re-reported...
  EXPECT_EQ(cluster->history().size(), 1u);  // ...but never re-run
}

TEST_F(GramFixture, CancelBeforeCommitFailsJobWithoutExecution) {
  // Submit in one-phase-off mode manually: send gram.submit but never
  // commit; then cancel. The job must never reach the scheduler.
  std::string contact;
  {
    cs::RpcClient raw(submit, world.net(), "raw.rpc");
    cs::Payload payload;
    payload.set("client_id", "raw");
    payload.set_uint("seq", 1);
    payload.set_bool("two_phase", true);
    payload.set("callback", "submit.wisc.edu/gram.cb");
    spec().to_payload(payload);
    raw.call(gatekeeper->address(), "gram.submit", std::move(payload), 30.0,
             [&](bool ok, const cs::Payload& reply) {
               if (ok && reply.get_bool("ok")) contact = reply.get("contact");
             });
    world.sim().run_until(world.now() + 60.0);
  }
  ASSERT_FALSE(contact.empty());
  bool cancelled = false;
  client.cancel(contact, [&](bool ok) { cancelled = ok; });
  await_state("FAILED", world.now() + 500.0);
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_TRUE(cluster->history().empty());
}

TEST_F(GramFixture, JobManagerCrashDuringStageInRecovers) {
  // Crash the front-end while the JobManager is fetching the executable;
  // the restarted JobManager redoes staging from its persisted record.
  cs::LinkConfig slow;
  slow.latency = 5.0;  // staging takes a while
  slow.jitter = 0.0;
  world.net().set_default_link(slow);
  std::string contact;
  client.submit(gatekeeper->address(), spec(100.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  world.sim().run_until(130.0);  // submit+commit done; stage-in in flight
  site.crash();
  world.sim().run_until(200.0);
  site.restart();
  // Drive recovery as the GridManager would.
  ASSERT_FALSE(contact.empty());
  client.restart_jobmanager(contact, [](auto) {});
  await_state("DONE", 6000.0);
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(cluster->history().size(), 1u);
}

TEST_F(GramFixture, RestartWhileJobStillQueuedReportsPending) {
  // Fill the cluster so our job queues; crash + restart the JM; the
  // reattached JM must report PENDING, not fail the job.
  for (int i = 0; i < 16; ++i) {
    condorg::batch::JobRequest hog;
    hog.owner = "local";
    hog.runtime_seconds = 5000.0;
    cluster->submit(std::move(hog));
  }
  std::string contact;
  client.submit(gatekeeper->address(), spec(50.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  await_state("PENDING", 1000.0);
  ASSERT_FALSE(contact.empty());
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  world.sim().run_until(world.now() + 100.0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, gram::GramJobState::kPending);
  await_state("DONE", 20000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

// ---------- real-time stdout streaming (§3.2) ----------

TEST_F(GramFixture, StdoutStreamsWhileActive) {
  gram::GramJobSpec streaming = spec(600.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  await_state("ACTIVE", 2000.0);
  const double active_at = world.now();
  world.sim().run_until(active_at + 300.0);
  // Output is already visible at the client, mid-run.
  const auto partial = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(partial.has_value());
  EXPECT_NE(partial->content.find("chunk 1 of"), std::string::npos);
  EXPECT_GE(partial->content.find("chunk 4 of"), 0u);
  await_state("DONE", 4000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

TEST_F(GramFixture, StreamedOutputResentToNewGassServer) {
  gram::GramJobSpec streaming = spec(1200.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  await_state("ACTIVE", 2000.0);
  world.sim().run_until(world.now() + 400.0);  // several chunks streamed
  const auto old_copy = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(old_copy.has_value());
  const std::size_t streamed_so_far = old_copy->content.size();
  ASSERT_GT(streamed_so_far, 0u);

  // The client "restarts" with a fresh, empty GASS server: update + resend.
  cg::FileService gass2(submit, world.net(), "gass2");
  ASSERT_FALSE(contact.empty());
  bool updated = false;
  client.update_gass(contact, gass2.address(), [&](bool ok) { updated = ok; });
  world.sim().run_until(world.now() + 120.0);
  ASSERT_TRUE(updated);
  const auto resent = gass2.store().get("out/job.out.stream");
  ASSERT_TRUE(resent.has_value());
  // Everything streamed before the move was resent (no gaps)...
  EXPECT_GE(resent->content.size(), streamed_so_far);
  EXPECT_NE(resent->content.find("chunk 1 of"), std::string::npos);
  // ...and streaming continues to the new server.
  const std::size_t at_switch = resent->content.size();
  world.sim().run_until(world.now() + 300.0);
  EXPECT_GT(gass2.store().get("out/job.out.stream")->content.size(),
            at_switch);
}

TEST_F(GramFixture, StreamSurvivesJobManagerRestartWithoutDuplicates) {
  gram::GramJobSpec streaming = spec(900.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](std::optional<std::string> c) { contact = c.value_or(""); });
  await_state("ACTIVE", 2000.0);
  world.sim().run_until(world.now() + 250.0);
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  world.sim().run_until(world.now() + 100.0);
  client.restart_jobmanager(contact, [](auto) {});
  await_state("DONE", 6000.0);
  ASSERT_TRUE(saw_state("DONE"));
  // Sequence-numbered appends: every chunk appears exactly once, in order.
  const auto stream = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(stream.has_value());
  std::size_t pos = 0;
  int expected = 1;
  while (true) {
    const std::string needle = "chunk " + std::to_string(expected) + " of";
    const auto found = stream->content.find(needle, pos);
    if (found == std::string::npos) break;
    pos = found + needle.size();
    ++expected;
  }
  EXPECT_GE(expected, 4);  // several chunks
  // No chunk number appears twice.
  for (int c = 1; c < expected; ++c) {
    const std::string needle = "chunk " + std::to_string(c) + " of";
    const auto first = stream->content.find(needle);
    EXPECT_EQ(stream->content.find(needle, first + 1), std::string::npos)
        << "duplicate " << needle;
  }
}
