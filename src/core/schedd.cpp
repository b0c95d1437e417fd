#include "condorg/core/schedd.h"

#include <algorithm>
#include <iterator>

namespace condorg::core {
namespace {
constexpr const char* kNextIdKey = "schedd/next_id";
}

std::string Schedd::job_key(std::uint64_t id) {
  return "schedd/job/" + std::to_string(id);
}

Schedd::Schedd(sim::Host& host)
    : host_(host),
      jobs_(host, "schedd.jobs"),
      status_counts_(host, "schedd.status_counts"),
      status_sets_(host, "schedd.status_sets") {
  reload();
  boot_id_ = host_.add_boot([this] { reload(); });
  // Every user-log event doubles as a trace event, which is what gives the
  // per-job timelines in tools/condorg_report their submit/execute/
  // reconnect detail without instrumenting each call site twice.
  log_.add_listener([this](const LogEvent& event) {
    sim::Tracer& tracer = host_.tracer();
    if (!tracer.enabled()) return;
    tracer.event(std::string("userlog.") + to_string(event.kind),
                 event.job_id, host_.name(), host_.epoch(), event.detail);
  });
}

Schedd::~Schedd() { host_.remove_boot(boot_id_); }

void Schedd::reload() {
  jobs_->clear();
  for (const std::string& key : host_.disk().keys_with_prefix("schedd/job/")) {
    const auto text = host_.disk().get(key);
    if (!text) continue;
    Job job = Job::deserialize(*text);
    jobs_->emplace(job.id, std::move(job));
  }
  if (const auto stored = host_.disk().get(kNextIdKey)) {
    next_id_ = std::stoull(*stored);
  }
  status_counts_ = {};
  status_sets_ = {};
  for (const auto& [id, job] : *jobs_) {
    ++(*status_counts_)[status_index(job.status)];
    (*status_sets_)[universe_index(job.desc.universe)][status_index(job.status)]
        .insert(id);
  }
}

void Schedd::reindex(const Job& job, JobStatus previous, bool is_new) {
  auto& row = (*status_sets_)[universe_index(job.desc.universe)];
  if (!is_new) row[status_index(previous)].erase(job.id);
  row[status_index(job.status)].insert(job.id);
  if (is_new) {
    // Total indexed ids only grows at submit/reload (jobs are never erased
    // from the queue), so the gauge is refreshed on the insert edge.
    host_.metrics()
        .gauge("schedd_index_size", {{"host", host_.name()}})
        .set(host_.now(), static_cast<double>(jobs_->size()));
  }
}

void Schedd::persist(const Job& job) {
  host_.disk().put(job_key(job.id), job.serialize());
}

void Schedd::notify(const Job& job) {
  // No copy of the listener list: a listener added meanwhile is first
  // called on the next mutation (the deque keeps existing entries in
  // place), and one removed meanwhile is marked dead, never called again,
  // and erased once the outermost notify returns — never while it may be
  // the function running.
  ++notify_depth_;
  const std::size_t count = listeners_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (listeners_[i].live) listeners_[i].fn(job);
  }
  if (--notify_depth_ == 0 && tombstones_) {
    std::erase_if(listeners_, [](const Listener& l) { return !l.live; });
    tombstones_ = false;
  }
}

void Schedd::set_depth_gauge(JobStatus status) {
  util::Gauge*& gauge = depth_gauges_[status_index(status)];
  if (gauge == nullptr) {
    gauge = &host_.metrics().gauge(
        "schedd.queue_depth",
        {{"host", host_.name()}, {"status", to_string(status)}});
  }
  gauge->set(host_.now(),
             static_cast<double>((*status_counts_)[status_index(status)]));
}

void Schedd::on_status_change(const Job& job, JobStatus previous,
                              bool is_new) {
  sim::Tracer& tracer = host_.tracer();
  if (is_new) {
    ++(*status_counts_)[status_index(job.status)];
    reindex(job, job.status, /*is_new=*/true);
    host_.metrics().counter("schedd.submits", {{"host", host_.name()}}).inc();
    set_depth_gauge(job.status);
    if (tracer.enabled()) {
      tracer.begin_job(job.id, host_.name(), host_.epoch(),
                       std::string(to_string(job.desc.universe)) +
                           " universe");
    }
    return;
  }
  if (previous == job.status) return;
  --(*status_counts_)[status_index(previous)];
  ++(*status_counts_)[status_index(job.status)];
  reindex(job, previous, /*is_new=*/false);
  util::Counter*& transitions =
      transition_counters_[status_index(previous)][status_index(job.status)];
  if (transitions == nullptr) {
    transitions = &host_.metrics().counter(
        "schedd.transitions", {{"host", host_.name()},
                               {"from", to_string(previous)},
                               {"to", to_string(job.status)}});
  }
  transitions->inc();
  set_depth_gauge(previous);
  set_depth_gauge(job.status);
  // Close the root span exactly once: terminal states never transition
  // again (mark_completed / remove both refuse terminal entries), so this
  // is the unique closing edge.
  if (tracer.enabled() && (job.status == JobStatus::kCompleted ||
                           job.status == JobStatus::kRemoved)) {
    tracer.end_job(
        job.id, host_.name(),
        job.status == JobStatus::kCompleted ? "completed" : "removed",
        job.hold_reason);
  }
}

std::uint64_t Schedd::submit(JobDescription description) {
  const std::uint64_t id = next_id_++;
  host_.disk().put(kNextIdKey, std::to_string(next_id_));
  Job job;
  job.id = id;
  job.desc = std::move(description);
  job.submit_time = host_.now();
  persist(job);
  const auto [it, inserted] = jobs_->emplace(id, std::move(job));
  on_status_change(it->second, it->second.status, /*is_new=*/true);
  log_.record(host_.now(), id, LogEventKind::kSubmit,
              std::string(to_string(it->second.desc.universe)) + " universe");
  notify(it->second);
  return id;
}

std::optional<Job> Schedd::query(std::uint64_t id) const {
  const auto it = jobs_->find(id);
  if (it == jobs_->end()) return std::nullopt;
  return it->second;
}

bool Schedd::with_job(std::uint64_t id,
                      const std::function<void(Job&)>& mutate) {
  const auto it = jobs_->find(id);
  if (it == jobs_->end()) return false;
  const JobStatus previous = it->second.status;
  mutate(it->second);
  persist(it->second);
  on_status_change(it->second, previous, /*is_new=*/false);
  notify(it->second);
  return true;
}

bool Schedd::hold(std::uint64_t id, const std::string& reason) {
  const auto it = jobs_->find(id);
  if (it == jobs_->end() || it->second.status == JobStatus::kCompleted ||
      it->second.status == JobStatus::kRemoved) {
    return false;
  }
  log_.record(host_.now(), id, LogEventKind::kHeld, reason);
  return with_job(id, [&reason](Job& job) {
    job.status = JobStatus::kHeld;
    job.hold_reason = reason;
  });
}

bool Schedd::release(std::uint64_t id) {
  const auto it = jobs_->find(id);
  if (it == jobs_->end() || it->second.status != JobStatus::kHeld) {
    return false;
  }
  log_.record(host_.now(), id, LogEventKind::kReleased, "");
  return with_job(id, [](Job& job) {
    job.status = JobStatus::kIdle;
    job.hold_reason.clear();
  });
}

bool Schedd::remove(std::uint64_t id) {
  const auto it = jobs_->find(id);
  if (it == jobs_->end() || it->second.status == JobStatus::kCompleted ||
      it->second.status == JobStatus::kRemoved) {
    return false;
  }
  log_.record(host_.now(), id, LogEventKind::kAborted, "removed by user");
  return with_job(id, [](Job& job) { job.status = JobStatus::kRemoved; });
}

void Schedd::mark_grid_submitted(std::uint64_t id, std::uint64_t seq,
                                 const std::string& site,
                                 const std::string& contact) {
  log_.record(host_.now(), id, LogEventKind::kGridSubmit,
              "site=" + site + " contact=" + contact);
  with_job(id, [&](Job& job) {
    job.gram_seq = seq;
    job.gram_site = site;
    job.gram_contact = contact;
    job.status = JobStatus::kRunning;
    job.remote_state = "PENDING";
    ++job.attempts;
  });
}

void Schedd::mark_executing(std::uint64_t id, const std::string& where) {
  log_.record(host_.now(), id, LogEventKind::kExecute, where);
  with_job(id, [this](Job& job) {
    job.status = JobStatus::kRunning;
    job.remote_state = "ACTIVE";
    if (job.first_execute_time < 0) job.first_execute_time = host_.now();
  });
}

void Schedd::mark_completed(std::uint64_t id) {
  const auto it = jobs_->find(id);
  if (it == jobs_->end() || it->second.status == JobStatus::kCompleted) {
    return;  // idempotent: duplicate DONE callbacks are harmless
  }
  log_.record(host_.now(), id, LogEventKind::kTerminated, "");
  with_job(id, [this](Job& job) {
    job.status = JobStatus::kCompleted;
    job.remote_state = "DONE";
    job.completion_time = host_.now();
  });
  if (it->second.desc.notify_email) {
    send_email("job " + std::to_string(id) + " completed",
               "your job finished successfully");
  }
}

void Schedd::mark_idle_again(std::uint64_t id, LogEventKind why,
                             const std::string& detail) {
  log_.record(host_.now(), id, why, detail);
  with_job(id, [](Job& job) {
    job.status = JobStatus::kIdle;
    job.gram_contact.clear();
    job.gram_seq = 0;
    job.remote_state.clear();
  });
}

void Schedd::mark_evicted(std::uint64_t id, double checkpointed_work,
                          const std::string& detail) {
  log_.record(host_.now(), id, LogEventKind::kEvicted, detail);
  with_job(id, [checkpointed_work](Job& job) {
    job.status = JobStatus::kIdle;
    job.checkpointed_work =
        std::max(job.checkpointed_work, checkpointed_work);
  });
}

std::vector<std::uint64_t> Schedd::jobs_with_status(JobStatus status) const {
  // O(result): merge the per-universe id sets (both already id-ordered) so
  // the output order matches the old full scan exactly.
  const auto& grid = (*status_sets_)[universe_index(Universe::kGrid)]
                                 [status_index(status)];
  const auto& vanilla = (*status_sets_)[universe_index(Universe::kVanilla)]
                                    [status_index(status)];
  std::vector<std::uint64_t> out;
  out.reserve(grid.size() + vanilla.size());
  std::merge(grid.begin(), grid.end(), vanilla.begin(), vanilla.end(),
             std::back_inserter(out));
  return out;
}

std::vector<std::uint64_t> Schedd::idle_jobs(Universe universe) const {
  // O(result) from the secondary index; id-ascending like the old scan.
  const auto& ids =
      (*status_sets_)[universe_index(universe)][status_index(JobStatus::kIdle)];
  return {ids.begin(), ids.end()};
}

std::size_t Schedd::count(JobStatus status) const {
  // O(1) from the counts maintained by on_status_change (cross-checked
  // against a full scan in audit()); callers poll this in driver loops.
  return (*status_counts_)[status_index(status)];
}

std::size_t Schedd::count(Universe universe, JobStatus status) const {
  return (*status_sets_)[universe_index(universe)][status_index(status)].size();
}

bool Schedd::all_terminal() const {
  return (*status_counts_)[status_index(JobStatus::kCompleted)] +
             (*status_counts_)[status_index(JobStatus::kRemoved)] ==
         jobs_->size();
}

std::size_t Schedd::active_count() const {
  return jobs_->size() - count(JobStatus::kCompleted) -
         count(JobStatus::kRemoved);
}

void Schedd::audit(std::vector<std::string>& out) const {
  std::map<std::uint64_t, std::uint64_t> seq_owner;  // gram_seq -> job id
  std::array<std::size_t, 5> scanned{};
  for (const auto& [id, job] : *jobs_) {
    ++scanned[status_index(job.status)];
    if (job.id != id) {
      out.push_back("job " + std::to_string(id) + " stored under wrong key");
    }
    if (id >= next_id_) {
      out.push_back("job " + std::to_string(id) +
                    " at or past the persisted id allocator (" +
                    std::to_string(next_id_) + ")");
    }
    // Exactly-once bedrock: a live sequence number names one job, ever.
    // Completed/removed jobs keep their seq for the log, but two *live* jobs
    // sharing one means a re-driven submission could adopt another job's
    // JobManager.
    const bool live = job.status == JobStatus::kIdle ||
                      job.status == JobStatus::kRunning ||
                      job.status == JobStatus::kHeld;
    if (live && job.gram_seq != 0) {
      const auto [it, inserted] = seq_owner.emplace(job.gram_seq, id);
      if (!inserted) {
        out.push_back("gram_seq " + std::to_string(job.gram_seq) +
                      " shared by live jobs " + std::to_string(it->second) +
                      " and " + std::to_string(id));
      }
    }
    if (job.desc.universe == Universe::kGrid &&
        job.status == JobStatus::kRunning && job.gram_seq == 0) {
      out.push_back("job " + std::to_string(id) +
                    " running at a site without an allocated gram_seq");
    }
    if (!job.gram_contact.empty() && job.gram_seq == 0 &&
        job.status != JobStatus::kCompleted &&
        job.status != JobStatus::kRemoved) {
      out.push_back("job " + std::to_string(id) +
                    " holds contact " + job.gram_contact + " without a seq");
    }
    if (job.status == JobStatus::kHeld && job.hold_reason.empty()) {
      out.push_back("job " + std::to_string(id) + " held with no reason");
    }
    if (job.first_execute_time >= 0 &&
        job.first_execute_time < job.submit_time) {
      out.push_back("job " + std::to_string(id) + " executed before submit");
    }
    if (job.status == JobStatus::kCompleted &&
        job.completion_time < job.submit_time) {
      out.push_back("job " + std::to_string(id) + " completed before submit");
    }
  }
  // The incremental status counts must agree with a full scan, or every
  // count()/all_terminal() caller is being lied to.
  if (scanned != *status_counts_) {
    out.push_back("status count cache diverges from a queue scan");
  }
  // Same bar for the secondary indexes: every (universe, status) id set
  // must hold exactly the ids a brute-force scan would find, or
  // idle_jobs()/jobs_with_status()/count(universe, status) callers are
  // driving stale state.
  std::array<std::array<std::set<std::uint64_t>, 5>, 2> rebuilt;
  for (const auto& [id, job] : *jobs_) {
    rebuilt[universe_index(job.desc.universe)][status_index(job.status)]
        .insert(id);
  }
  if (rebuilt != *status_sets_) {
    out.push_back("status index diverges from a queue scan");
  }
}

int Schedd::add_queue_listener(std::function<void(const Job&)> listener) {
  const int id = next_listener_id_++;
  listeners_.push_back(Listener{id, true, std::move(listener)});
  return id;
}

void Schedd::remove_queue_listener(int id) {
  if (notify_depth_ == 0) {
    std::erase_if(listeners_, [id](const Listener& l) { return l.id == id; });
    return;
  }
  for (Listener& l : listeners_) {
    if (l.id == id) {
      l.live = false;  // mid-notify: erased after the outermost notify
      tombstones_ = true;
    }
  }
}

void Schedd::send_email(const std::string& subject, const std::string& body) {
  log_.email(host_.now(), "user@submit", subject, body);
}

}  // namespace condorg::core
