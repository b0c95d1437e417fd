#include "condorg/batch/local_scheduler.h"

#include <algorithm>

namespace condorg::batch {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kWalltimeExceeded: return "WALLTIME_EXCEEDED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

LocalScheduler::LocalScheduler(sim::Simulation& sim, std::string name,
                               int total_cpus)
    : sim_(sim), name_(std::move(name)), total_cpus_(total_cpus) {}

std::uint64_t LocalScheduler::submit(JobRequest request) {
  const std::uint64_t id = next_id_++;
  JobRecord record;
  record.id = id;
  record.request = std::move(request);
  record.submit_time = sim_.now();
  jobs_.emplace(id, std::move(record));
  queue_.push_back(id);
  try_dispatch();
  return id;
}

std::optional<JobRecord> LocalScheduler::status(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

bool LocalScheduler::cancel(std::uint64_t id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second.state)) return false;
  if (it->second.state == JobState::kQueued) {
    std::erase(queue_, id);
  }
  finish_job(id, JobState::kCancelled);
  return true;
}

std::uint64_t LocalScheduler::add_job_handler(std::uint64_t id,
                                              CompletionHandler handler) {
  const std::uint64_t token = next_handler_token_++;
  const auto it = jobs_.find(id);
  if (it != jobs_.end() && is_terminal(it->second.state)) {
    handler(it->second);  // already finished: fire immediately
    return token;
  }
  job_handlers_[id].on_terminal.push_back(JobHandler{token, std::move(handler)});
  handler_job_.emplace(token, id);
  return token;
}

std::uint64_t LocalScheduler::add_start_handler(std::uint64_t id,
                                                CompletionHandler handler) {
  const std::uint64_t token = next_handler_token_++;
  const auto it = jobs_.find(id);
  if (it != jobs_.end() && it->second.state == JobState::kRunning) {
    handler(it->second);  // already started: fire immediately
    return token;
  }
  if (it != jobs_.end() && is_terminal(it->second.state)) return token;
  job_handlers_[id].on_start.push_back(JobHandler{token, std::move(handler)});
  handler_job_.emplace(token, id);
  return token;
}

void LocalScheduler::remove_job_handler(std::uint64_t token) {
  const auto owner = handler_job_.find(token);
  if (owner == handler_job_.end()) return;
  const auto it = job_handlers_.find(owner->second);
  handler_job_.erase(owner);
  if (it == job_handlers_.end()) return;  // transition firing right now
  const auto match = [token](const JobHandler& h) { return h.token == token; };
  std::erase_if(it->second.on_start, match);
  std::erase_if(it->second.on_terminal, match);
  if (it->second.on_start.empty() && it->second.on_terminal.empty()) {
    job_handlers_.erase(it);
  }
}

void LocalScheduler::fire(const std::vector<JobHandler>& handlers,
                          const JobRecord& record) {
  for (const JobHandler& entry : handlers) {
    if (handler_job_.erase(entry.token) == 0) continue;  // removed meanwhile
    entry.handler(record);
  }
}

double LocalScheduler::owner_usage(const std::string& owner) const {
  const auto it = usage_.find(owner);
  return it == usage_.end() ? 0.0 : it->second;
}

std::size_t LocalScheduler::pick_next(int free) const {
  if (queue_.empty()) return static_cast<std::size_t>(-1);
  const JobRecord& head = jobs_.at(queue_.front());
  return head.request.cpus <= free ? 0 : static_cast<std::size_t>(-1);
}

void LocalScheduler::try_dispatch() {
  while (true) {
    const std::size_t index = pick_next(free_cpus());
    if (index >= queue_.size()) return;
    const std::uint64_t id = queue_[index];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    start_job(id);
  }
}

void LocalScheduler::start_job(std::uint64_t id) {
  JobRecord& record = jobs_.at(id);
  record.state = JobState::kRunning;
  record.start_time = sim_.now();
  busy_cpus_ += record.request.cpus;
  const double duration = std::min(record.request.runtime_seconds,
                                   record.request.walltime_limit_seconds);
  const bool killed =
      record.request.walltime_limit_seconds < record.request.runtime_seconds;
  completion_events_[id] = sim_.schedule_in(duration, [this, id, killed] {
    finish_job(id,
               killed ? JobState::kWalltimeExceeded : JobState::kCompleted);
  });
  const auto it = job_handlers_.find(id);
  if (it == job_handlers_.end() || it->second.on_start.empty()) return;
  const std::vector<JobHandler> started = std::move(it->second.on_start);
  it->second.on_start.clear();
  if (it->second.on_terminal.empty()) job_handlers_.erase(it);
  const JobRecord snapshot = record;  // a handler may cancel the job
  fire(started, snapshot);
}

void LocalScheduler::finish_job(std::uint64_t id, JobState state) {
  JobRecord& record = jobs_.at(id);
  const bool was_running = record.state == JobState::kRunning;
  if (const auto it = completion_events_.find(id);
      it != completion_events_.end()) {
    sim_.cancel(it->second);
    completion_events_.erase(it);
  }
  record.state = state;
  record.end_time = sim_.now();
  if (was_running) {
    busy_cpus_ -= record.request.cpus;
    const double used = (record.end_time - record.start_time) *
                        static_cast<double>(record.request.cpus);
    usage_[record.request.owner] += used;
    if (state == JobState::kCompleted) cpu_seconds_ += used;
  }
  history_.push_back(record);
  if (const auto it = job_handlers_.find(id); it != job_handlers_.end()) {
    // Copy: a handler may submit (reentrancy into try_dispatch is fine since
    // we dispatch after notifying).
    const JobRecord snapshot = record;
    const JobHandlers per_job = std::move(it->second);
    job_handlers_.erase(it);
    // A job that never started drops its start handlers unfired.
    for (const JobHandler& entry : per_job.on_start) {
      handler_job_.erase(entry.token);
    }
    fire(per_job.on_terminal, snapshot);
  }
  try_dispatch();
}

}  // namespace condorg::batch
