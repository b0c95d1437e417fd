#include "condorg/core/vanilla_runner.h"

#include <memory>

#include "condorg/core/broker.h"

namespace condorg::core {

VanillaRunner::VanillaRunner(Schedd& schedd, sim::Network& network,
                             condor::Collector& collector,
                             VanillaRunnerOptions options)
    : schedd_(schedd),
      host_(schedd.host()),
      claims_(schedd, network, options.shadow),
      job_ads_(host_, "vanilla_runner.job_ads") {
  negotiator_ = std::make_unique<condor::Negotiator>(
      host_, collector, [this] { return idle_jobs(); },
      [this](const condor::Match& match) { on_match(match); },
      options.negotiator);
  // The reborn runner rebuilds each ad from the reloaded queue.
  crash_listener_ = host_.add_crash_listener([this] { job_ads_->clear(); });
  queue_listener_ = schedd_.add_queue_listener([this](const Job& job) {
    if (job.status == JobStatus::kCompleted ||
        job.status == JobStatus::kRemoved) {
      job_ads_->erase(job.id);
    }
  });
}

VanillaRunner::~VanillaRunner() {
  schedd_.remove_queue_listener(queue_listener_);
  host_.remove_crash_listener(crash_listener_);
}

void VanillaRunner::start() { negotiator_->start(); }

std::vector<condor::IdleJob> VanillaRunner::idle_jobs() {
  std::vector<condor::IdleJob> out;
  for (const std::uint64_t id : schedd_.idle_jobs(Universe::kVanilla)) {
    if (claims_.claimed(id)) continue;  // already being placed
    auto [it, inserted] = job_ads_->try_emplace(id);
    if (inserted) {
      it->second = std::make_shared<const classad::ClassAd>(
          broker_job_ad(schedd_.jobs().at(id)));
    }
    out.push_back(condor::IdleJob{std::to_string(id), it->second});
  }
  return out;
}

condor::Collector::AdPtr VanillaRunner::cached_job_ad(std::uint64_t id) const {
  const auto it = job_ads_->find(id);
  return it == job_ads_->end() ? nullptr : it->second;
}

void VanillaRunner::on_match(const condor::Match& match) {
  const auto job = schedd_.query(std::stoull(match.job_id));
  if (!job || job->status != JobStatus::kIdle) return;
  const auto slot_addr = match.slot_ad.eval_string("MyAddress");
  if (!slot_addr) return;
  claims_.claim(*job, match.job_id, sim::Address::parse(*slot_addr),
                *match.slot_ad.eval_string("Name"));
}

}  // namespace condorg::core
