#include "condorg/core/pool_runner.h"

#include <utility>

#include "condorg/core/broker.h"

namespace condorg::core {

PoolRunner::PoolRunner(Schedd& schedd, sim::Network& network, Options options)
    : schedd_(schedd),
      network_(network),
      host_(schedd.host()),
      options_(std::move(options)),
      rpc_(host_, network, std::string(kService) + ".rpc"),
      claims_(schedd, network, options_.shadow, [this] {
        publish();  // roll the window to the next idle job
      }) {
  install();
  boot_id_ = host_.add_boot([this] {
    install();
    if (started_) {
      publish();
      advertise_loop();
    }
  });
  crash_listener_ = host_.add_crash_listener([this] {
    published_id_ = 0;  // the ad ages out of the Collector by TTL
  });
}

PoolRunner::~PoolRunner() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kService);
}

void PoolRunner::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void PoolRunner::start() {
  if (started_) return;
  started_ = true;
  publish();
  advertise_loop();
}

std::string PoolRunner::ad_name(std::uint64_t job_id) const {
  return host_.name() + "#job" + std::to_string(job_id);
}

void PoolRunner::on_message(const sim::Message& message) {
  if (message.type == "portal.deliver") {
    on_deliver(message);
    return;
  }
  if (message.type == "negotiator.match") {
    on_match(message.body);
    return;
  }
  host_.metrics()
      .counter("unknown_message",
               {{"daemon", "pool_runner"}, {"type", message.type}})
      .inc();
}

void PoolRunner::on_deliver(const sim::Message& message) {
  // Crash on receipt: nothing persisted yet, so the portal's redelivery
  // replays the whole batch — the marker below then makes it idempotent.
  if (host_.crash_point("portal.deliver_recv")) return;
  const std::string user = message.body.get("user");
  const std::uint64_t seq = message.body.get_uint("seq");
  const std::uint64_t count = message.body.get_uint("count", 1);
  sim::Payload reply;
  reply.set_uint("seq", seq);
  const std::string marker = "pool_runner/delivered/" + std::to_string(seq);
  if (host_.disk().contains(marker)) {
    // Portal retry after a lost ack: the batch is already in the queue.
    ++duplicate_deliveries_;
    reply.set("status", "ok");
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (schedd_.active_count() + count > options_.max_active) {
    ++busy_rejections_;
    reply.set("status", "busy");
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  // Schedd::submit persists every job before returning and this handler
  // cannot be interrupted between the submits, the marker, and the ack
  // (crash points are the only interruption points), so the batch lands
  // exactly once.
  for (std::uint64_t i = 0; i < count; ++i) {
    JobDescription desc;
    desc.universe = Universe::kVanilla;
    desc.owner = user;
    desc.runtime_seconds = message.body.get_double("runtime", 60.0);
    desc.cpus = static_cast<int>(message.body.get_int("cpus", 1));
    desc.notify_email = false;
    const std::string requirements = message.body.get("requirements");
    if (!requirements.empty()) {
      desc.ad.insert_expr("Requirements", requirements);
    }
    const std::string rank = message.body.get("rank");
    if (!rank.empty()) desc.ad.insert_expr("Rank", rank);
    schedd_.submit(std::move(desc));
  }
  host_.disk().put(marker, "1");
  ++deliveries_accepted_;
  reply.set("status", "ok");
  sim::rpc_reply(network_, message, address(), std::move(reply));
  publish();
}

void PoolRunner::publish() {
  std::uint64_t next = 0;
  for (const std::uint64_t id : schedd_.idle_jobs(Universe::kVanilla)) {
    if (claims_.claimed(id)) continue;
    next = id;
    break;
  }
  if (next == 0) {
    invalidate_published();
    return;
  }
  if (published_id_ != 0 && published_id_ != next) invalidate_published();
  const auto job = schedd_.query(next);
  if (!job) return;
  classad::ClassAd ad = broker_job_ad(*job);
  ad.insert_string("Name", ad_name(next));
  ad.insert_string("MyAddress", address().str());
  ad.insert_string("User", job->desc.owner);
  ad.insert_string("JobUniverse", "Vanilla");
  ad.insert_string("JobStatus", "Idle");
  sim::Payload payload;
  payload.set("name", ad_name(next));
  payload.set("ad", ad.unparse());
  payload.set_double("ttl",
                     options_.advertise_period * options_.ad_ttl_factor);
  rpc_.notify(options_.collector, "collector.advertise", std::move(payload));
  published_id_ = next;
}

void PoolRunner::invalidate_published() {
  if (published_id_ == 0) return;
  sim::Payload payload;
  payload.set("name", ad_name(published_id_));
  rpc_.notify(options_.collector, "collector.invalidate", std::move(payload));
  published_id_ = 0;
}

void PoolRunner::advertise_loop() {
  host_.post(options_.advertise_period, life_.wrap([this] {
                publish();  // unchanged content is a checksum no-op
                advertise_loop();
              }));
}

void PoolRunner::on_match(const sim::Payload& body) {
  ++matches_received_;
  const std::string name = body.get("job");
  const std::string slot_address = body.get("slot_address");
  if (published_id_ == 0 || name != ad_name(published_id_) ||
      slot_address.empty()) {
    ++stale_matches_;  // window moved (crash, completion) before this landed
    return;
  }
  const auto job = schedd_.query(published_id_);
  if (!job || job->status != JobStatus::kIdle || claims_.claimed(job->id)) {
    ++stale_matches_;
    return;
  }
  claims_.claim(*job, name, sim::Address::parse(slot_address),
                body.get("slot_name"));
  // The matched job is Running now, so this retracts its ad and advertises
  // the next pending job in the window.
  publish();
}

}  // namespace condorg::core
