// The Condor Scheduler daemon (Schedd): the persistent job queue.
//
// "To protect against local failure, all relevant state for each submitted
// job is stored persistently in the scheduler's job queue. This persistent
// information allows the GridManager to recover from a local crash."
// (§4.2). Every mutation is written through to the submit machine's stable
// storage; after a crash the queue is rebuilt from disk and the
// GridManager re-drives every non-terminal job.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "condorg/core/job.h"
#include "condorg/core/userlog.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/util/metrics.h"

namespace condorg::core {

class Schedd {
 public:
  /// Submit-host daemon: the queue lives with the user's agent.
  CONDORG_HOST_LOCAL("user");

  explicit Schedd(sim::Host& host);
  ~Schedd();

  Schedd(const Schedd&) = delete;
  Schedd& operator=(const Schedd&) = delete;

  sim::Host& host() { return host_; }
  const sim::Host& host() const { return host_; }
  UserLog& log() { return log_; }
  const UserLog& log() const { return log_; }

  // --- user API (§4.1) ---
  std::uint64_t submit(JobDescription description);
  std::optional<Job> query(std::uint64_t id) const;
  bool hold(std::uint64_t id, const std::string& reason);
  bool release(std::uint64_t id);
  bool remove(std::uint64_t id);

  // --- agent-side mutation (GridManager, shadows, DAGMan) ---
  /// Apply `mutate` to the job and persist. Returns false for unknown ids.
  bool with_job(std::uint64_t id, const std::function<void(Job&)>& mutate);

  /// Logged transitions.
  void mark_grid_submitted(std::uint64_t id, std::uint64_t seq,
                           const std::string& site,
                           const std::string& contact);
  void mark_executing(std::uint64_t id, const std::string& where);
  void mark_completed(std::uint64_t id);
  void mark_idle_again(std::uint64_t id, LogEventKind why,
                       const std::string& detail);
  void mark_evicted(std::uint64_t id, double checkpointed_work,
                    const std::string& detail);

  // --- queue inspection ---
  const std::map<std::uint64_t, Job>& jobs() const { return *jobs_; }
  std::vector<std::uint64_t> jobs_with_status(JobStatus status) const;
  std::vector<std::uint64_t> idle_jobs(Universe universe) const;
  std::size_t count(JobStatus status) const;
  /// O(1) per-(universe, status) count from the secondary indexes — e.g.
  /// the GridManager's in-flight cap check, formerly a full queue scan.
  std::size_t count(Universe universe, JobStatus status) const;
  bool all_terminal() const;
  std::size_t active_count() const;  // idle + running + held

  /// Invariant audit hook (see sim::InvariantAuditor): appends one line per
  /// violated queue invariant — duplicate live GRAM sequence numbers,
  /// incoherent status bookkeeping, a job id at or past the persisted
  /// allocator. Appending nothing means the queue is sound.
  void audit(std::vector<std::string>& out) const;

  /// Fires after every queue mutation (submit or state change). Returns an
  /// id for remove_queue_listener, for listeners that die before the queue.
  int add_queue_listener(std::function<void(const Job&)> listener);
  void remove_queue_listener(int id);

  /// E-mail hook (also appended to the UserLog mailbox).
  void send_email(const std::string& subject, const std::string& body);

 private:
  void persist(const Job& job);
  void reload();
  void notify(const Job& job);
  /// Observability choke point: every queue mutation (submit and every
  /// with_job status change) flows through here. Maintains the O(1) status
  /// counts, the per-status queue-depth gauges, the transition counters, and
  /// the job's root trace span (opened at submit, closed exactly once when
  /// the entry turns terminal).
  void on_status_change(const Job& job, JobStatus previous, bool is_new);
  void set_depth_gauge(JobStatus status);
  static std::size_t status_index(JobStatus status) {
    return static_cast<std::size_t>(status);
  }
  static std::size_t universe_index(Universe universe) {
    return static_cast<std::size_t>(universe);
  }
  /// Move `job.id` between the (universe, status) id sets. `previous` is
  /// ignored when `is_new`.
  void reindex(const Job& job, JobStatus previous, bool is_new);
  static std::string job_key(std::uint64_t id);

  sim::Host& host_;
  UserLog log_;
  det::HostLocal<std::map<std::uint64_t, Job>> jobs_;
  std::uint64_t next_id_ = 1;
  // indexed by JobStatus
  det::HostLocal<std::array<std::size_t, 5>> status_counts_;
  /// Secondary indexes: per-(universe, status) job-id sets, kept in sync by
  /// the same on_status_change choke point that maintains status_counts_
  /// (and rebuilt wholesale in reload()). idle_jobs()/jobs_with_status()
  /// read them in O(result); audit() cross-checks them against a full scan.
  /// A job's universe never changes after submit, so moves only cross
  /// status cells within one universe row.
  det::HostLocal<std::array<std::array<std::set<std::uint64_t>, 5>, 2>>
      status_sets_;
  // det-local(listeners_): registered by same-host daemons at wiring time.
  // A deque, so a listener added during notify moves no entry mid-call.
  struct Listener {
    int id = 0;
    bool live = true;
    std::function<void(const Job&)> fn;
  };
  std::deque<Listener> listeners_;
  int next_listener_id_ = 0;
  int notify_depth_ = 0;     // nested notify() calls in progress
  bool tombstones_ = false;  // listeners removed mid-notify, not yet swept
  // Registry references are stable: each transition counter and depth
  // gauge is looked up by name once, on first use.
  std::array<std::array<util::Counter*, 5>, 5> transition_counters_{};
  std::array<util::Gauge*, 5> depth_gauges_{};
  int boot_id_ = 0;
};

}  // namespace condorg::core
