// Local (intra-site) batch scheduling.
//
// GRAM's JobManager "submits the jobs to the execution site's local
// scheduling system (PBS, Condor, LSF, LoadLeveler, NQE, etc.)" — this
// module models those systems. A LocalScheduler lives on the *cluster*, not
// on the site's front-end host: when the front-end (Gatekeeper/JobManager
// machine) crashes, queued and running jobs carry on, which is exactly the
// situation GRAM's reattach logic (§3.2, §4.2) exists to handle.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "condorg/sim/simulation.h"
#include "condorg/sim/types.h"

namespace condorg::batch {

struct JobRequest {
  std::string owner;                     // local account
  double runtime_seconds = 60.0;         // true compute demand
  double walltime_limit_seconds =
      std::numeric_limits<double>::infinity();  // site policy cap
  int cpus = 1;
  std::string tag;  // opaque caller annotation (e.g. GRAM job contact)
};

enum class JobState {
  kQueued,
  kRunning,
  kCompleted,
  kWalltimeExceeded,  // killed by the site's runtime policy
  kCancelled,
};

const char* to_string(JobState state);
bool is_terminal(JobState state);

struct JobRecord {
  std::uint64_t id = 0;
  JobRequest request;
  JobState state = JobState::kQueued;
  sim::Time submit_time = 0;
  sim::Time start_time = -1;
  sim::Time end_time = -1;

  double queue_wait() const {
    return start_time >= 0 ? start_time - submit_time : -1;
  }
};

/// Base class: queue bookkeeping, CPU accounting, completion events.
/// Subclasses override pick_next() to define the dispatch policy.
class LocalScheduler {
 public:
  using CompletionHandler = std::function<void(const JobRecord&)>;

  LocalScheduler(sim::Simulation& sim, std::string name, int total_cpus);
  virtual ~LocalScheduler() = default;

  LocalScheduler(const LocalScheduler&) = delete;
  LocalScheduler& operator=(const LocalScheduler&) = delete;

  /// Enqueue a job; returns its site-local id. Dispatch happens immediately
  /// if CPUs are free (subject to policy).
  std::uint64_t submit(JobRequest request);

  /// Current job record; nullopt for unknown ids. Terminal records are
  /// retained (the site's accounting log).
  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Cancel a queued or running job. Returns false for unknown/terminal.
  bool cancel(std::uint64_t id);

  /// Invoked on every terminal transition (complete, walltime kill,
  /// cancel). Multiple handlers may be registered (JobManager + metrics).
  void add_completion_handler(CompletionHandler handler);

  /// Invoked once when job `id` reaches a terminal state, then discarded.
  /// If the job is already terminal the handler fires immediately. Returns
  /// a token for remove_job_handler.
  std::uint64_t add_job_handler(std::uint64_t id, CompletionHandler handler);
  /// Invoked once when job `id` starts running, then discarded. If the job
  /// is already running the handler fires immediately; a job that turns
  /// terminal without starting (cancelled while queued) drops it unfired,
  /// as does registering on an already-terminal job. Returns a token for
  /// remove_job_handler.
  std::uint64_t add_start_handler(std::uint64_t id, CompletionHandler handler);
  /// Drops a start or terminal handler; a removed token never fires, even
  /// when removed by another handler of the same transition. O(log n).
  void remove_job_handler(std::uint64_t token);

  const std::string& name() const { return name_; }
  int total_cpus() const { return total_cpus_; }
  int busy_cpus() const { return busy_cpus_; }
  int free_cpus() const { return total_cpus_ - busy_cpus_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::size_t running_count() const { return completion_events_.size(); }

  /// Completed-job history (terminal records, in completion order).
  const std::vector<JobRecord>& history() const { return history_; }

  /// Aggregate CPU-seconds delivered to completed jobs.
  double cpu_seconds_delivered() const { return cpu_seconds_; }

 protected:
  /// Policy hook: index into queue_ of the next job to start given `free`
  /// CPUs, or npos if none can start. The default is strict FIFO with no
  /// backfill (subclasses refine).
  virtual std::size_t pick_next(int free) const;

  const std::vector<std::uint64_t>& queue() const { return queue_; }
  const JobRecord& record(std::uint64_t id) const { return jobs_.at(id); }

  /// Owner usage accounting for fair-share policies.
  double owner_usage(const std::string& owner) const;

 private:
  void try_dispatch();
  void start_job(std::uint64_t id);
  void finish_job(std::uint64_t id, JobState state);

  sim::Simulation& sim_;
  std::string name_;
  int total_cpus_;
  int busy_cpus_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::map<std::uint64_t, sim::EventId> completion_events_;
  std::vector<std::uint64_t> queue_;  // ids of queued jobs, FIFO order
  std::vector<CompletionHandler> handlers_;
  struct JobHandler {
    std::uint64_t token;
    CompletionHandler handler;
  };
  struct JobHandlers {
    std::vector<JobHandler> on_start;
    std::vector<JobHandler> on_terminal;
  };
  /// Fire `handlers` in order, skipping any token removed meanwhile.
  void fire(const std::vector<JobHandler>& handlers, const JobRecord& record);
  /// Registered handlers by job id; an entry exists only while non-empty.
  std::map<std::uint64_t, JobHandlers> job_handlers_;
  /// Live handler token -> job id, so removal touches one job's lists.
  std::map<std::uint64_t, std::uint64_t> handler_job_;
  std::uint64_t next_handler_token_ = 1;
  std::vector<JobRecord> history_;
  std::map<std::string, double> usage_;  // owner -> cpu-seconds
  double cpu_seconds_ = 0;
};

}  // namespace condorg::batch
