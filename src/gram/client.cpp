#include "condorg/gram/client.h"

#include "condorg/util/logging.h"
#include "condorg/util/strings.h"

namespace condorg::gram {
namespace {
// Referenced only from CONDORG_LOG_TRACE sites (discarded-if-constexpr).
[[maybe_unused]] const util::Logger& gram_logger() {
  static const util::Logger logger("gram");
  return logger;
}
}  // namespace

sim::Address jobmanager_address(const std::string& contact) {
  const auto colon = contact.find(':');
  return sim::Address{contact.substr(0, colon), jobmanager_service(contact)};
}

sim::Address gatekeeper_address_for(const std::string& contact) {
  const auto colon = contact.find(':');
  return sim::Address{contact.substr(0, colon), kGatekeeperService};
}

GramClient::GramClient(sim::Host& host, sim::Network& network,
                       std::string client_id, GramClientOptions options)
    : host_(host),
      network_(network),
      client_id_(std::move(client_id)),
      options_(options),
      rpc_(host, network, "gram.client." + client_id_),
      submits_counter_(host.metrics().counter("gram.submits_sent",
                                              {{"client", client_id_}})),
      commits_counter_(host.metrics().counter("gram.commits_sent",
                                              {{"client", client_id_}})) {}

sim::Payload GramClient::base_payload() const {
  sim::Payload payload;
  payload.set("client_id", client_id_);
  if (!credential_.empty()) payload.set("credential", credential_);
  return payload;
}

std::string GramClient::seq_contact_key(std::uint64_t seq) const {
  return "gram.client/" + client_id_ + "/seq/" + std::to_string(seq);
}

std::uint64_t GramClient::allocate_seq() {
  const std::string key = "gram.client/" + client_id_ + "/next_seq";
  std::uint64_t seq = 1;
  if (const auto stored = host_.disk().get(key)) seq = std::stoull(*stored);
  host_.disk().put(key, std::to_string(seq + 1));
  return seq;
}

std::uint64_t GramClient::next_seq() const {
  const std::string key = "gram.client/" + client_id_ + "/next_seq";
  if (const auto stored = host_.disk().get(key)) return std::stoull(*stored);
  return 1;
}

std::optional<std::string> GramClient::contact_for_seq(
    std::uint64_t seq) const {
  return host_.disk().get(seq_contact_key(seq));
}

void GramClient::submit(const sim::Address& gatekeeper,
                        const GramJobSpec& spec, const sim::Address& callback,
                        SubmitCallback done) {
  submit_with_seq(allocate_seq(), gatekeeper, spec, callback, std::move(done));
}

void GramClient::submit_with_seq(std::uint64_t seq,
                                 const sim::Address& gatekeeper,
                                 const GramJobSpec& spec,
                                 const sim::Address& callback,
                                 SubmitCallback done) {
  drive_submit(seq, gatekeeper, spec, callback, std::move(done),
               options_.max_attempts);
}

void GramClient::drive_submit(std::uint64_t seq,
                              const sim::Address& gatekeeper,
                              const GramJobSpec& spec,
                              const sim::Address& callback,
                              SubmitCallback done, int attempts_left) {
  if (attempts_left <= 0) {
    done(std::nullopt);
    return;
  }
  // Crash point: seq already allocated and persisted, request not yet sent
  // — recovery must re-drive this seq, never allocate a fresh one.
  if (host_.crash_point("gram.client.submit_send")) return;
  sim::Payload payload = base_payload();
  payload.set_uint("seq", seq);
  payload.set_bool("two_phase", options_.two_phase);
  payload.set("callback", callback.str());
  spec.to_payload(payload);
  ++submits_sent_;
  submits_counter_.inc();
  CONDORG_LOG_TRACE(gram_logger(), client_id_, " submit seq=", seq, " to ",
                    gatekeeper.host, " attempts_left=", attempts_left);
  rpc_.call(
      gatekeeper, "gram.submit", std::move(payload), options_.rpc_timeout,
      [this, seq, gatekeeper, spec, callback, done = std::move(done),
       attempts_left](bool ok, const sim::Payload& reply) mutable {
        if (!ok) {
          // Lost request OR lost response: resend with the SAME sequence
          // number after a delay. The gatekeeper's dedup makes this safe.
          host_.post(options_.retry_delay, [this, seq, gatekeeper, spec,
                                            callback,
                                            done = std::move(done),
                                            attempts_left]() mutable {
            drive_submit(seq, gatekeeper, spec, callback, std::move(done),
                         attempts_left - 1);
          });
          return;
        }
        if (!reply.get_bool("ok")) {
          done(std::nullopt);  // authoritative refusal (auth, bad spec)
          return;
        }
        const std::string contact = reply.get("contact");
        // Crash point: contact received but not yet persisted — after
        // recovery the retransmitted seq must dedup to the same contact.
        if (host_.crash_point("gram.client.contact_persist")) return;
        host_.disk().put(seq_contact_key(seq), contact);
        if (!options_.two_phase) {
          done(contact);
          return;
        }
        drive_commit(contact, std::move(done), options_.max_attempts);
      });
}

void GramClient::drive_commit(const std::string& contact, SubmitCallback done,
                              int attempts_left) {
  if (attempts_left <= 0) {
    done(std::nullopt);
    return;
  }
  // Crash point: contact persisted, commit not yet sent — the job must not
  // start (two-phase) and recovery must be able to finish the handshake.
  if (host_.crash_point("gram.client.commit_send")) return;
  sim::Payload payload = base_payload();
  payload.set("contact", contact);
  ++commits_sent_;
  commits_counter_.inc();
  CONDORG_LOG_TRACE(gram_logger(), client_id_, " commit ", contact,
                    " attempts_left=", attempts_left);
  rpc_.call(jobmanager_address(contact), "jm.commit", std::move(payload),
            options_.rpc_timeout,
            [this, contact, done = std::move(done),
             attempts_left](bool ok, const sim::Payload& reply) mutable {
              if (ok && reply.get_bool("ok")) {
                done(contact);
                return;
              }
              host_.post(options_.retry_delay,
                         [this, contact, done = std::move(done),
                          attempts_left]() mutable {
                           drive_commit(contact, std::move(done),
                                        attempts_left - 1);
                         });
            });
}

void GramClient::ping_jobmanager(const std::string& contact,
                                 BoolCallback done) {
  rpc_.call(jobmanager_address(contact), "jm.ping", base_payload(),
            options_.rpc_timeout,
            [done = std::move(done)](bool ok, const sim::Payload& reply) {
              done(ok && reply.get_bool("ok"));
            });
}

void GramClient::probe_jobs(const sim::Address& gatekeeper,
                            const std::vector<std::string>& contacts,
                            ProbeCallback done) {
  sim::Payload payload = base_payload();
  payload.set("contacts", util::join(contacts, " "));
  rpc_.call(gatekeeper, "gram.probe_jobs", std::move(payload),
            options_.rpc_timeout,
            [contacts, done = std::move(done)](bool ok,
                                               const sim::Payload& reply) {
              ProbeResult result;
              if (!ok) {
                done(result);  // silence: kSilent
                return;
              }
              if (!reply.get_bool("ok")) {
                result.outcome = ProbeResult::Outcome::kRefused;
                done(result);
                return;
              }
              result.outcome = ProbeResult::Outcome::kAnswered;
              for (const std::string& contact : contacts) {
                std::string state = reply.get(probe_state_key(contact));
                if (!state.empty()) result.states[contact] = std::move(state);
              }
              done(result);
            });
}

void GramClient::restart_jobmanager(const std::string& contact,
                                    StateCallback done) {
  sim::Payload payload = base_payload();
  payload.set("contact", contact);
  rpc_.call(gatekeeper_address_for(contact), "gram.restart_jobmanager",
            std::move(payload), options_.rpc_timeout,
            [done = std::move(done)](bool ok, const sim::Payload& reply) {
              if (!ok || !reply.get_bool("ok")) {
                done(std::nullopt);
                return;
              }
              done(gram_state_from_string(reply.get("state")));
            });
}

void GramClient::cancel(const std::string& contact, BoolCallback done) {
  sim::Payload payload = base_payload();
  payload.set("contact", contact);
  rpc_.call(jobmanager_address(contact), "jm.cancel", std::move(payload),
            options_.rpc_timeout,
            [done = std::move(done)](bool ok, const sim::Payload& reply) {
              done(ok && reply.get_bool("ok"));
            });
}

void GramClient::update_gass(const std::string& contact,
                             const sim::Address& gass, BoolCallback done) {
  sim::Payload payload = base_payload();
  payload.set("contact", contact);
  payload.set("gass_url", gass.str());
  rpc_.call(jobmanager_address(contact), "jm.update_gass", std::move(payload),
            options_.rpc_timeout,
            [done = std::move(done)](bool ok, const sim::Payload& reply) {
              done(ok && reply.get_bool("ok"));
            });
}

void GramClient::refresh_remote_credential(const std::string& contact,
                                           BoolCallback done) {
  sim::Payload payload = base_payload();
  payload.set("contact", contact);
  rpc_.call(jobmanager_address(contact), "jm.refresh_credential",
            std::move(payload), options_.rpc_timeout,
            [done = std::move(done)](bool ok, const sim::Payload& reply) {
              done(ok && reply.get_bool("ok"));
            });
}

}  // namespace condorg::gram
