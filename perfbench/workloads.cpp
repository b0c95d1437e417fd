#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "condorg/classad/parser.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/startd.h"
#include "condorg/core/agent.h"
#include "condorg/core/audit.h"
#include "condorg/core/pool_runner.h"
#include "condorg/core/portal.h"
#include "condorg/core/portal_client.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/critical_path.h"
#include "condorg/sim/det.h"
#include "condorg/sim/failure.h"
#include "condorg/util/rng.h"
#include "condorg/workloads/grid_builder.h"

namespace perfbench {

namespace cc = condorg::condor;
namespace co = condorg::core;
namespace cs = condorg::sim;
namespace cu = condorg::util;
namespace cw = condorg::workloads;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

double jain_index(const std::vector<double>& xs) {
  double sum = 0, sum_sq = 0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  return sum_sq > 0 ? sum * sum / (static_cast<double>(xs.size()) * sum_sq)
                    : 0.0;
}

std::uint64_t fold_time(std::uint64_t h, double t) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &t, sizeof(bits));
  return cu::fnv1a_mix(h, bits);
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Per-instance service names fold into daemon families: one shadow service
// exists per claim and one JobManager per GRAM contact, so unfolded rows grow
// with the job count. Rpc reply endpoints ("<service>.rpc") fold with their
// daemon. Anything unrecognised lands in "other", which keeps the ledger
// tiling and shows up as a nonzero other line.
std::string daemon_family(const std::string& service) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"gram.jm", "gram.jm"},
      {"gram.gatekeeper", "gram.gatekeeper"},
      {"gram.client", "gram.client"},
      {"gridmanager", "core.gridmanager"},
      {"gass", "gass"},
      {"condor.collector", "condor.collector"},
      {"startd", "condor.startd"},
      {"shadow", "condor.shadow"},
      {"glidein", "core.glidein"},
      {"portal_client", "core.portal_client"},
      {"portal", "core.portal"},
      {"pool_runner", "core.pool_runner"},
  };
  for (const auto& [prefix, family] : kPrefixes) {
    if (starts_with(service, prefix)) return family;
  }
  return "other";
}

// Host roles follow the naming every workload below uses.
std::string host_role(const std::string& host) {
  if (starts_with(host, "submit.")) return "submit";
  if (starts_with(host, "portal.")) return "central";
  if (starts_with(host, "u") && host.find(".users") != std::string::npos) {
    return "user";
  }
  if (host.find(".pool") != std::string::npos) return "worker";
  if (starts_with(host, "site")) return "site";
  return "other";
}

/// Shared epilogue of every workload: reads job records, kernel counters and
/// the armed instrumentation, and runs the correctness gate once on the
/// final state.
class Recorder {
 public:
  Recorder(const CampaignSpec& spec, cs::World& world);

  /// Brackets the setup phase and the drive loop.
  void setup_done();
  void drive_done();

  /// Fill `record`: job-record metrics over `schedds`, kernel counters, the
  /// pass's instrumentation, and the gate. `auditor` already has the
  /// workload's daemons attached; it runs here exactly once.
  void finish(const std::vector<const co::Schedd*>& schedds,
              co::StandardAuditor& auditor,
              const cc::PoolNegotiator* pool_negotiator,
              CampaignRecord& record);

  /// Plant spec.defect into `schedd` (self-test only).
  void plant_defect(co::Schedd& schedd);

 private:
  const CampaignSpec& spec_;
  cs::World& world_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t setup_end_ns_ = 0;
  std::uint64_t drive_end_ns_ = 0;
};

Recorder::Recorder(const CampaignSpec& spec, cs::World& world)
    : spec_(spec), world_(world), start_ns_(now_ns()) {
  cs::Simulation& sim = world_.sim();
  // Each pass arms exactly one instrument; the environment knobs that
  // World reads are overridden so a stray CONDORG_PROFILE cannot leak into
  // the timed configuration.
  sim.profiler().set_enabled(spec_.pass == Pass::kProfile);
  sim.tracer().set_enabled(spec_.pass == Pass::kTrace);
  condorg::det::set_enabled(spec_.pass == Pass::kDetsan);
}

void Recorder::setup_done() { setup_end_ns_ = now_ns(); }

void Recorder::drive_done() { drive_end_ns_ = now_ns(); }

void Recorder::plant_defect(co::Schedd& schedd) {
  if (spec_.defect == Defect::kNone || schedd.jobs().empty()) return;
  const std::uint64_t id = schedd.jobs().begin()->first;
  if (spec_.defect == Defect::kLost) {
    schedd.with_job(id, [](co::Job& job) { job.status = co::JobStatus::kIdle; });
  } else {
    // A second terminate record for one job: what a duplicated execution
    // leaves in the user log.
    schedd.log().record(world_.now(), id, co::LogEventKind::kTerminated);
  }
}

void Recorder::finish(const std::vector<const co::Schedd*>& schedds,
                      co::StandardAuditor& auditor,
                      const cc::PoolNegotiator* pool_negotiator,
                      CampaignRecord& record) {
  cs::Simulation& sim = world_.sim();
  record.setup_s = static_cast<double>(setup_end_ns_ - start_ns_) / 1e9;
  record.drive_s = static_cast<double>(drive_end_ns_ - setup_end_ns_) / 1e9;

  // --- job records: latency, makespan, outcome digest, exactly-once ---
  double first_submit = 1e300, last_completion = 0;
  std::uint64_t outcome = cu::fnv1a("perfbench/outcome");
  std::uint64_t not_once = 0;
  for (const co::Schedd* schedd : schedds) {
    std::map<std::uint64_t, int> terminated;
    for (const co::LogEvent& event : schedd->log().events()) {
      if (event.kind == co::LogEventKind::kTerminated) ++terminated[event.job_id];
    }
    outcome = cu::fnv1a_mix(outcome, cu::fnv1a(schedd->host().name()));
    for (const auto& [id, job] : schedd->jobs()) {
      ++record.submitted;
      const bool done = job.status == co::JobStatus::kCompleted;
      if (done) ++record.completed;
      const auto it = terminated.find(id);
      if ((it == terminated.end() ? 0 : it->second) != (done ? 1 : 0)) {
        ++not_once;
      }
      first_submit = std::min(first_submit, job.submit_time);
      last_completion = std::max(last_completion, job.completion_time);
      if (job.first_execute_time >= 0) {
        record.tta_sim_s.push_back(job.first_execute_time - job.submit_time);
      }
      outcome = cu::fnv1a_mix(outcome, id);
      outcome = cu::fnv1a_mix(outcome, static_cast<std::uint64_t>(job.status));
      outcome = fold_time(outcome, job.submit_time);
      outcome = fold_time(outcome, job.first_execute_time);
      outcome = fold_time(outcome, job.completion_time);
    }
  }
  record.makespan_sim_s =
      record.submitted > 0 ? last_completion - first_submit : 0.0;
  if (pool_negotiator != nullptr) {
    for (const auto& [user, n] : pool_negotiator->matched_by_user()) {
      outcome = cu::fnv1a_mix(outcome, cu::fnv1a(user));
      outcome = cu::fnv1a_mix(outcome, n);
    }
  }
  record.outcome_digest = outcome;
  record.kernel_digest = sim.trace_digest();

  // --- the gate ---
  std::vector<std::string>& fail = record.gate_failures;
  if (record.submitted == 0) fail.push_back("no jobs submitted");
  if (record.completed != record.submitted) {
    fail.push_back("failed_frac " +
                   std::to_string(record.submitted - record.completed) + "/" +
                   std::to_string(record.submitted) + " jobs not Completed");
  }
  if (not_once > 0) {
    fail.push_back(std::to_string(not_once) +
                   " job(s) without exactly one terminate record");
  }
  const std::size_t violations = auditor.auditor().run(sim.now());
  if (violations > 0) {
    fail.push_back("invariant auditor: " + std::to_string(violations) +
                   " violation(s)\n" + auditor.report());
  }
  const std::size_t detsan = condorg::det::violation_count();
  if (detsan > 0) {
    condorg::det::report("perfbench");
    fail.push_back("DetSan: " + std::to_string(detsan) + " violation(s)");
  }
  condorg::det::set_enabled(false);
  std::uint64_t unknown = 0;
  sim.metrics().for_each_counter(
      "unknown_message",
      [&unknown](std::string_view, std::uint64_t n) { unknown += n; });
  if (unknown > 0) {
    fail.push_back("unknown_message counters total " + std::to_string(unknown));
  }
  if (pool_negotiator != nullptr && pool_negotiator->divergences() > 0) {
    fail.push_back("pool negotiator divergences: " +
                   std::to_string(pool_negotiator->divergences()));
  }

  // --- kernel counters ---
  record.counters["sim.events"] = static_cast<double>(sim.dispatched());
  record.counters["sim.deliveries"] =
      static_cast<double>(world_.net().delivered());
  record.counters["sim.msgs_lost"] = static_cast<double>(world_.net().lost());

  if (spec_.pass == Pass::kProfile) {
    const cs::Profiler& profiler = sim.profiler();
    double accounted = 0;
    for (const auto& [key, cell] : profiler.messages()) {
      const std::string family = daemon_family(std::get<2>(key));
      const double s = static_cast<double>(cell.wall_ns) / 1e9;
      record.layers[family + ".handler_s"] += s;
      record.counters[family + ".msgs"] += static_cast<double>(cell.count);
      accounted += s;
    }
    for (const auto& [host, cell] : profiler.timers()) {
      const double s = static_cast<double>(cell.wall_ns) / 1e9;
      record.layers["timers." + host_role(host) + "_s"] += s;
      accounted += s;
    }
    // The kernel residual is what the ledger lines above leave of the drive
    // wall: queue operations, delivery scheduling, and events scheduled
    // straight on the Simulation (failure plans, background load) rather
    // than through Host::post. It is derived, not measured.
    record.layers["sim.kernel_residual_s"] = record.drive_s - accounted;
  }
  if (spec_.pass == Pass::kTrace) {
    const cs::CriticalPath path(sim.tracer().records());
    for (const auto& [phase, seconds] : path.phase_p99_to_active()) {
      std::string name = phase;
      std::replace(name.begin(), name.end(), '-', '_');
      record.layers["cp." + name + "_p99_s"] = seconds;
    }
    record.layers["cp.attributed_share"] = path.attributed_share();
    record.counters["cp.jobs_reached_active"] =
        static_cast<double>(path.to_active().size());
    for (const std::string& line : path.self_check()) {
      fail.push_back("critical path self-check: " + line);
    }
  }
}

// ---------------------------------------------------------------------------
// grid_burst and grid_faults: the GRAM/GASS agent path.

constexpr int kGridSites = 8;
constexpr int kCpusPerSite = 16;
constexpr std::uint64_t kExeBytes = 256 * 1024;
// Fault drills are scheduled up to here; grid_faults drains well before.
constexpr double kFaultHorizon = 86400.0;

void add_grid_sites(cw::GridTestbed& testbed) {
  for (int s = 0; s < kGridSites; ++s) {
    cw::SiteSpec spec;
    spec.name = "site" + std::to_string(s) + ".grid.org";
    spec.cpus = kCpusPerSite;
    testbed.add_site(spec);
  }
  testbed.add_submit_host("submit.wisc.edu");
}

/// Grid-side epilogue shared by both grid workloads: site-level executions
/// must match completed jobs one for one, plus the GRAM/GASS counters.
void finish_grid(cw::GridTestbed& testbed, co::CondorGAgent& agent,
                 Recorder& recorder, CampaignRecord& record) {
  recorder.plant_defect(agent.schedd());
  co::StandardAuditor auditor(testbed.world().sim());
  auditor.attach_agent(agent);
  for (const auto& site : testbed.sites()) {
    auditor.attach_gatekeeper(*site->gatekeeper);
  }
  recorder.finish({&agent.schedd()}, auditor, nullptr, record);

  std::uint64_t executions = 0, hits = 0, misses = 0;
  for (const auto& site : testbed.sites()) {
    for (const auto& run : site->scheduler->history()) {
      if (run.state == condorg::batch::JobState::kCompleted) ++executions;
    }
    if (auto* cache = site->gatekeeper->staging_cache()) {
      hits += cache->hits();
      misses += cache->misses();
    }
  }
  if (executions != record.completed) {
    record.gate_failures.push_back(
        "site executions " + std::to_string(executions) + " != completed " +
        std::to_string(record.completed) + " (exactly-once)");
  }
  co::GridManager& gm = agent.gridmanager();
  record.counters["gram.probes_sent"] = static_cast<double>(gm.probes_sent());
  record.counters["gram.jm_restarts"] =
      static_cast<double>(gm.jobmanager_restarts());
  record.counters["gass.gets"] = static_cast<double>(gm.gass().gets_served());
  record.counters["gass.bytes_served"] =
      static_cast<double>(gm.gass().bytes_served());
  record.counters["gass.staging_hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

void drive_agent(cs::World& world, co::CondorGAgent& agent, double step,
                 double horizon) {
  cs::Simulation& sim = world.sim();
  while (!agent.schedd().all_terminal() && sim.now() < horizon) {
    sim.run_until(sim.now() + step);
  }
}

CampaignRecord grid_burst(const CampaignSpec& spec) {
  CampaignRecord record;
  cw::GridTestbed testbed(spec.seed);
  Recorder recorder(spec, testbed.world());
  add_grid_sites(testbed);
  co::AgentOptions options;
  options.gridmanager.staged_content_bytes = kExeBytes;
  options.gridmanager.max_pending_per_site = 128;
  co::CondorGAgent agent(testbed.world(), "submit.wisc.edu", options);
  agent.start();
  // One executable shared by the whole burst, sites round-robin: the shape
  // a parameter sweep produces and the staging cache exists for.
  for (std::uint64_t i = 0; i < spec.jobs; ++i) {
    co::JobDescription job;
    job.universe = co::Universe::kGrid;
    job.executable = "sweep.bin";
    job.executable_size = kExeBytes;
    job.runtime_seconds = 300.0;
    job.grid_site = testbed.site(i % kGridSites).spec.name;
    job.notify_email = false;
    agent.submit(job);
  }
  recorder.setup_done();
  drive_agent(testbed.world(), agent, 600.0, 30 * 86400.0);
  recorder.drive_done();
  finish_grid(testbed, agent, recorder, record);
  return record;
}

CampaignRecord grid_faults(const CampaignSpec& spec) {
  CampaignRecord record;
  cw::GridTestbed testbed(spec.seed);
  Recorder recorder(spec, testbed.world());
  add_grid_sites(testbed);
  cs::World& world = testbed.world();
  co::AgentOptions options;
  options.gridmanager.staged_content_bytes = kExeBytes;
  options.gridmanager.max_pending_per_site = 128;
  co::CondorGAgent agent(world, "submit.wisc.edu", options);
  agent.start();
  cu::Rng runtimes = world.sim().make_rng("perfbench/runtimes");
  for (std::uint64_t i = 0; i < spec.jobs; ++i) {
    co::JobDescription job;
    job.universe = co::Universe::kGrid;
    job.executable = "sweep.bin";
    job.executable_size = kExeBytes;
    job.runtime_seconds = 1800.0 + 60.0 * static_cast<double>(runtimes.below(30));
    job.grid_site = testbed.site(i % kGridSites).spec.name;
    job.notify_email = false;
    agent.submit(job);
  }

  // F1: every 300 s, kill one running job's JobManager process at each of
  // sites 0-3.
  auto killer = std::make_shared<std::function<void()>>();
  cu::Rng pick = world.sim().make_rng("perfbench/f1");
  *killer = [&agent, &testbed, &world, pick, weak = std::weak_ptr(killer)]() mutable {
    std::vector<std::vector<std::string>> live(4);
    for (const auto& [id, job] : agent.schedd().jobs()) {
      if (job.status != co::JobStatus::kRunning || job.gram_contact.empty()) {
        continue;
      }
      for (std::size_t s = 0; s < live.size(); ++s) {
        if (job.gram_site == testbed.site(s).spec.name) {
          live[s].push_back(job.gram_contact);
        }
      }
    }
    for (std::size_t s = 0; s < live.size(); ++s) {
      if (live[s].empty()) continue;
      testbed.site(s).gatekeeper->kill_jobmanager(
          live[s][pick.below(live[s].size())]);
    }
    if (auto self = weak.lock()) {
      world.sim().schedule_in(300.0, [self] { (*self)(); });
    }
  };
  world.sim().schedule_at(300.0, [killer] { (*killer)(); });

  // F2-F4 follow a fixed drill schedule rather than exponential plans: a
  // campaign lasts a few simulated hours, so a random plan would hand one
  // seed twice the incidents of another and the seed, not the code, would
  // set the run time. The seed still picks runtimes, F1 victims and jitter.
  cs::FailureInjector chaos(world);
  for (double t = 0; t < kFaultHorizon; t += 7200.0) {
    // F2: site front-ends 4 and 5 crash for 15 minutes, an hour apart.
    chaos.crash_at(testbed.site(4).spec.name, t + 3600.0, 900.0);
    chaos.crash_at(testbed.site(5).spec.name, t + 7200.0, 900.0);
    // F4: the submit machine loses sites 6 and 7 for 20 minutes.
    chaos.partition_at("submit.wisc.edu", testbed.site(6).spec.name,
                       t + 1800.0, 1200.0);
    chaos.partition_at("submit.wisc.edu", testbed.site(7).spec.name,
                       t + 5400.0, 1200.0);
  }
  // F3: the submit machine itself crashes for 10 minutes every 3 hours.
  for (double t = 5400.0; t < kFaultHorizon; t += 10800.0) {
    chaos.crash_at("submit.wisc.edu", t, 600.0);
  }
  recorder.setup_done();
  drive_agent(world, agent, 600.0, 30 * 86400.0);
  recorder.drive_done();
  record.counters["faults.crashes"] = static_cast<double>(chaos.crashes_injected());
  record.counters["faults.partitions"] =
      static_cast<double>(chaos.partitions_injected());
  finish_grid(testbed, agent, recorder, record);
  return record;
}

// ---------------------------------------------------------------------------
// glidein_pool: personal-agent matching over GlideIn startds (Fig. 2).

CampaignRecord glidein_pool(const CampaignSpec& spec) {
  CampaignRecord record;
  cw::GridTestbed testbed(spec.seed);
  Recorder recorder(spec, testbed.world());
  cs::World& world = testbed.world();
  for (int s = 0; s < kGridSites; ++s) {
    cw::SiteSpec site;
    site.name = "site" + std::to_string(s) + ".grid.org";
    site.cpus = kCpusPerSite;
    site.background_load = true;
    site.background.mean_interarrival_seconds = 1200.0;
    site.background.mean_runtime_seconds = 3600.0;
    site.background.max_cpus_per_job = 4;
    testbed.add_site(site);
  }
  testbed.add_submit_host("submit.wisc.edu");
  co::CondorGAgent agent(world, "submit.wisc.edu");
  co::GlideInOptions options;
  options.walltime = 12 * 3600.0;
  options.idle_timeout = 1800.0;
  options.tick_interval = 300.0;
  co::GlideInManager& glideins = agent.enable_glideins(options);
  for (std::size_t s = 0; s < testbed.sites().size(); ++s) {
    glideins.add_site(co::GlideInSite{
        testbed.site(s).spec.name, testbed.site(s).gatekeeper_address(),
        testbed.site(s).cluster, 8, 1});
  }
  agent.start();
  cu::Rng runtimes = world.sim().make_rng("perfbench/runtimes");
  for (std::uint64_t i = 0; i < spec.jobs; ++i) {
    co::JobDescription job;
    job.universe = co::Universe::kVanilla;
    job.runtime_seconds = 900.0 + 60.0 * static_cast<double>(runtimes.below(17));
    job.notify_email = false;
    agent.submit(job);
  }
  recorder.setup_done();
  drive_agent(world, agent, 600.0, 30 * 86400.0);
  recorder.drive_done();

  recorder.plant_defect(agent.schedd());
  // Gatekeepers stay unattached: every glidein is a GRAM job with the same
  // tag from the same callback, which the cross/unique-jobmanager check (a
  // grid-universe exactly-once invariant) would read as one job running
  // many times.
  co::StandardAuditor auditor(world.sim());
  auditor.attach_agent(agent);
  recorder.finish({&agent.schedd()}, auditor, nullptr, record);
  const cc::Negotiator& negotiator = agent.vanilla().negotiator();
  record.counters["condor.negotiator.cycles"] =
      static_cast<double>(negotiator.cycles());
  record.counters["condor.negotiator.matches"] =
      static_cast<double>(negotiator.matches_made());
  record.counters["condor.collector.noop_ratio"] =
      ratio(static_cast<double>(agent.collector().noop_updates()),
            static_cast<double>(agent.collector().ads_received()));
  return record;
}

// ---------------------------------------------------------------------------
// portal_storm: many users behind one Portal, delta pool negotiation.

constexpr std::uint64_t kJobsPerUser = 10;
constexpr int kGroups = 16;
constexpr int kBusyGroups = 8;
constexpr int kSlotsPerGroup = 4;

CampaignRecord portal_storm(const CampaignSpec& spec) {
  CampaignRecord record;
  cs::World world(spec.seed);
  Recorder recorder(spec, world);
  const int users_n =
      static_cast<int>(std::max<std::uint64_t>(1, spec.jobs / kJobsPerUser));

  cs::Host& central = world.add_host("portal.grid");
  cc::Collector collector(central, world.net());
  cc::PoolNegotiatorOptions nopt;
  nopt.cycle_period = 5.0;
  nopt.full_sweep_every = 8;
  nopt.hold_timeout = 60.0;
  cc::PoolNegotiator negotiator(central, world.net(), collector, nopt);
  if (spec.pass == Pass::kProfile) negotiator.set_clock(now_ns);
  co::Portal portal(central, world.net());

  struct User {
    std::string name;
    std::unique_ptr<co::Schedd> schedd;
    std::unique_ptr<co::PoolRunner> runner;
    std::unique_ptr<co::PortalClient> client;
  };
  std::vector<std::unique_ptr<User>> users;
  for (int u = 0; u < users_n; ++u) {
    auto user = std::make_unique<User>();
    char name[16];
    std::snprintf(name, sizeof(name), "u%04d", u);
    user->name = name;
    cs::Host& host = world.add_host(user->name + ".users");
    user->schedd = std::make_unique<co::Schedd>(host);
    co::PoolRunnerOptions ropt;
    ropt.collector = collector.address();
    ropt.advertise_period = 30.0;
    ropt.shadow.poll_interval = 30.0;
    user->runner =
        std::make_unique<co::PoolRunner>(*user->schedd, world.net(), ropt);
    co::PortalClientOptions copt;
    copt.portal = portal.address();
    copt.deliver_to = user->runner->address();
    copt.user = user->name;
    copt.total_jobs = kJobsPerUser;
    copt.batch_size = 5;
    copt.runtime_seconds = 40.0 + 10.0 * (u % 4);
    copt.requirements =
        "other.SiteGroup == \"g" + std::to_string(u % kBusyGroups) + "\"";
    user->client = std::make_unique<co::PortalClient>(host, world.net(), copt);
    users.push_back(std::move(user));
  }
  std::vector<std::unique_ptr<cc::Startd>> startds;
  for (int g = 0; g < kGroups; ++g) {
    for (int s = 0; s < kSlotsPerGroup; ++s) {
      char node[32];
      std::snprintf(node, sizeof(node), "g%02d-n%02d.pool", g, s);
      cs::Host& host = world.add_host(node);
      cc::StartdOptions sopt;
      sopt.collector = collector.address();
      sopt.advertise_period = 30.0;
      sopt.checkpoint_interval = 300.0;
      sopt.base_ad = condorg::classad::parse_ad(
          "[Arch = \"X86_64\"; Memory = 512; SiteGroup = \"g" +
          std::to_string(g) + "\"]");
      startds.push_back(std::make_unique<cc::Startd>(
          host, world.net(), std::string("slot1@") + node, sopt));
    }
  }
  portal.start();
  negotiator.start();
  for (auto& user : users) {
    user->runner->start();
    user->client->start();
  }
  recorder.setup_done();

  const std::uint64_t total = static_cast<std::uint64_t>(users_n) * kJobsPerUser;
  std::map<std::string, std::uint64_t> snapshot;
  cs::Simulation& sim = world.sim();
  const auto drained = [&] {
    if (portal.queue_depth() != 0) return false;
    for (const auto& user : users) {
      if (!user->client->drained() || !user->schedd->all_terminal()) {
        return false;
      }
    }
    return true;
  };
  while (!drained() && sim.now() < 86400.0) {
    sim.run_until(sim.now() + 15.0);
    if (snapshot.empty()) {
      std::uint64_t matched = 0;
      for (const auto& [user, n] : negotiator.matched_by_user()) matched += n;
      // Fairness is judged mid-campaign: at the end every user has
      // finished and any index is trivially 1.
      if (2 * matched >= total) snapshot = negotiator.matched_by_user();
    }
  }
  recorder.drive_done();

  recorder.plant_defect(*users.front()->schedd);
  co::StandardAuditor auditor(sim);
  std::vector<const co::Schedd*> schedds;
  for (auto& user : users) {
    auditor.attach_schedd(*user->schedd);
    schedds.push_back(user->schedd.get());
  }
  auditor.attach_pool_negotiator(negotiator);
  recorder.finish(schedds, auditor, &negotiator, record);

  std::vector<double> per_user;
  for (const auto& user : users) {
    const auto it = snapshot.find(user->name);
    per_user.push_back(it == snapshot.end() ? 0.0
                                            : static_cast<double>(it->second));
  }
  record.fairness_jain = jain_index(per_user);
  if (snapshot.empty()) record.gate_failures.push_back("never reached 50% matched");

  std::uint64_t runner_busy = 0, runner_accepted = 0;
  for (const auto& user : users) {
    runner_busy += user->runner->busy_rejections();
    runner_accepted += user->runner->deliveries_accepted();
  }
  const double cycles = static_cast<double>(negotiator.cycles());
  record.counters["condor.pool_negotiator.cycles"] = cycles;
  record.counters["condor.pool_negotiator.skipped_ratio"] =
      ratio(static_cast<double>(negotiator.skipped_cycles()), cycles);
  record.counters["condor.pool_negotiator.matches_per_cycle"] =
      ratio(static_cast<double>(negotiator.matches_made()), cycles);
  record.counters["condor.collector.noop_ratio"] =
      ratio(static_cast<double>(collector.noop_updates()),
            static_cast<double>(collector.ads_received()));
  record.counters["core.portal.busy_reject_ratio"] =
      ratio(static_cast<double>(portal.busy_rejections()),
            static_cast<double>(portal.submits_received()));
  record.counters["core.pool_runner.busy_reject_ratio"] = ratio(
      static_cast<double>(runner_busy),
      static_cast<double>(runner_busy + runner_accepted));
  if (spec.pass == Pass::kProfile) {
    std::vector<double> delta_ms;
    for (const std::uint64_t ns : negotiator.delta_cycle_ns()) {
      delta_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    double sweep_ns = 0;
    for (const std::uint64_t ns : negotiator.reference_cycle_ns()) {
      sweep_ns += static_cast<double>(ns);
    }
    record.layers["condor.pool_negotiator.delta_cycle_ms_p50"] =
        percentile(delta_ms, 50);
    record.layers["condor.pool_negotiator.sweep_s"] = sweep_ns / 1e9;
  }
  return record;
}

}  // namespace

CampaignRecord run_campaign(const CampaignSpec& spec) {
  if (spec.workload == "grid_burst") return grid_burst(spec);
  if (spec.workload == "grid_faults") return grid_faults(spec);
  if (spec.workload == "portal_storm") return portal_storm(spec);
  if (spec.workload == "glidein_pool") return glidein_pool(spec);
  throw std::invalid_argument("unknown workload: " + spec.workload);
}

}  // namespace perfbench
