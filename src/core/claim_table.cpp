#include "condorg/core/claim_table.h"

#include <utility>

namespace condorg::core {

ClaimTable::ClaimTable(Schedd& schedd, sim::Network& network,
                       condor::ShadowOptions options,
                       std::function<void()> on_release)
    : schedd_(schedd),
      network_(network),
      host_(schedd.host()),
      options_(options),
      on_release_(std::move(on_release)) {
  // Registered after the Schedd's reload, so this sees the reloaded queue.
  boot_id_ = host_.add_boot([this] {
    for (const std::uint64_t id :
         schedd_.jobs_with_status(JobStatus::kRunning)) {
      if (schedd_.jobs().at(id).desc.universe != Universe::kVanilla) continue;
      schedd_.with_job(id, [](Job& job) { job.status = JobStatus::kIdle; });
    }
  });
  crash_listener_ = host_.add_crash_listener([this] { shadows_.clear(); });
}

ClaimTable::~ClaimTable() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
}

void ClaimTable::claim(const Job& job, const std::string& name,
                       const sim::Address& slot,
                       const std::string& slot_name) {
  condor::ShadowJob shadow_job;
  shadow_job.job_id = name;
  shadow_job.total_work_seconds = job.desc.runtime_seconds;
  shadow_job.checkpointed_work = job.checkpointed_work;

  const std::uint64_t job_id = job.id;
  const std::string claim_id = name + "." + std::to_string(++claim_counter_);
  ++spawned_;
  auto shadow = std::make_unique<condor::Shadow>(
      host_, network_, shadow_job, slot, claim_id, options_,
      /*on_done=*/
      [this, job_id](const std::string&) {
        schedd_.mark_completed(job_id);
        release(job_id);
      },
      /*on_requeue=*/
      [this, job_id](const std::string&, double checkpoint,
                     const std::string& reason) {
        schedd_.mark_evicted(job_id, checkpoint, reason);
        release(job_id);
      });
  shadow->start();
  schedd_.mark_executing(job_id, "slot=" + slot_name);
  shadows_.emplace(job_id, std::move(shadow));
}

void ClaimTable::release(std::uint64_t job_id) {
  host_.post(0.0, life_.wrap([this, job_id] {
               shadows_.erase(job_id);
               if (on_release_) on_release_();
             }));
}

}  // namespace condorg::core
