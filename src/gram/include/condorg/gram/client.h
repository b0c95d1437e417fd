// Client side of GRAM: what the GridManager uses to talk to sites.
//
// Implements the revised protocol's exactly-once submission: each request
// carries a client-unique sequence number *persisted before first send*, so
// after any combination of lost requests, lost responses, and submit-machine
// crashes, re-driving the submission with the same sequence number yields
// the same job, never a second copy. Commit is a separate phase: the job
// does not start until the client confirms it received the contact.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "condorg/gram/protocol.h"
#include "condorg/gsi/credential.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/metrics.h"

namespace condorg::gram {

struct GramClientOptions {
  double rpc_timeout = 30.0;
  double retry_delay = 30.0;
  int max_attempts = 40;  // per phase
  /// false = one-phase ablation mode: no commit phase; combined with a
  /// non-dedup gatekeeper this reproduces the duplicated-jobs failure mode
  /// the two-phase protocol exists to prevent.
  bool two_phase = true;
};

/// The JobManager endpoint for a contact ("sitehost:n").
sim::Address jobmanager_address(const std::string& contact);
/// The Gatekeeper endpoint on the site hosting `contact`.
sim::Address gatekeeper_address_for(const std::string& contact);

class GramClient {
 public:
  CONDORG_HOST_LOCAL("user");

  GramClient(sim::Host& host, sim::Network& network, std::string client_id,
             GramClientOptions options = {});

  GramClient(const GramClient&) = delete;
  GramClient& operator=(const GramClient&) = delete;

  /// Proxy credential attached to all requests.
  void set_credential(const gsi::Credential& credential) {
    credential_ = credential.serialize();
  }
  void set_credential_text(std::string serialized) {
    credential_ = std::move(serialized);
  }
  const std::string& credential_text() const { return credential_; }

  /// Allocate and persist a fresh sequence number. Persisting *before* the
  /// first send is what makes crash-recovery dedup work.
  std::uint64_t allocate_seq();

  /// The next sequence number allocate_seq() would hand out (read-only;
  /// every seq ever allocated by this client is strictly below it). Used by
  /// the invariant auditor to check seq monotonicity.
  std::uint64_t next_seq() const;

  /// Contact recorded for a sequence number (if the submit got that far).
  std::optional<std::string> contact_for_seq(std::uint64_t seq) const;

  using SubmitCallback =
      std::function<void(std::optional<std::string> contact)>;
  using BoolCallback = std::function<void(bool ok)>;
  using StateCallback =
      std::function<void(std::optional<GramJobState> state)>;
  using ProbeCallback = std::function<void(const ProbeResult& result)>;

  /// Full submission (allocate seq, two-phase commit, retries). `callback_`
  /// names the client service that will receive "gram.callback" updates.
  void submit(const sim::Address& gatekeeper, const GramJobSpec& spec,
              const sim::Address& callback, SubmitCallback done);

  /// Re-drivable form used during crash recovery: same seq => same job.
  void submit_with_seq(std::uint64_t seq, const sim::Address& gatekeeper,
                       const GramJobSpec& spec, const sim::Address& callback,
                       SubmitCallback done);

  /// Probe the JobManager (alive?).
  void ping_jobmanager(const std::string& contact, BoolCallback done);
  /// One batched liveness probe of a site: ask its Gatekeeper for the state
  /// of the JobManager behind each of `contacts` (gram.probe_jobs).
  void probe_jobs(const sim::Address& gatekeeper,
                  const std::vector<std::string>& contacts,
                  ProbeCallback done);
  /// Ask the Gatekeeper to start a replacement JobManager for `contact`.
  void restart_jobmanager(const std::string& contact, StateCallback done);
  /// Cancel the job.
  void cancel(const std::string& contact, BoolCallback done);
  /// Tell the JobManager the client's GASS server moved (crash recovery).
  void update_gass(const std::string& contact, const sim::Address& gass,
                   BoolCallback done);

  /// Re-forward the current (refreshed) proxy to the JobManager, which
  /// holds a delegated copy for its own GASS traffic (§4.3).
  void refresh_remote_credential(const std::string& contact,
                                 BoolCallback done);

  std::uint64_t submits_sent() const { return submits_sent_; }
  std::uint64_t commits_sent() const { return commits_sent_; }

 private:
  void drive_submit(std::uint64_t seq, const sim::Address& gatekeeper,
                    const GramJobSpec& spec, const sim::Address& callback,
                    SubmitCallback done, int attempts_left);
  void drive_commit(const std::string& contact, SubmitCallback done,
                    int attempts_left);
  sim::Payload base_payload() const;
  std::string seq_contact_key(std::uint64_t seq) const;

  sim::Host& host_;
  sim::Network& network_;
  std::string client_id_;
  GramClientOptions options_;
  sim::RpcClient rpc_;
  // Registry references are stable for the registry's lifetime; caching
  // them keeps metric_key() string-building off the per-submit hot path.
  util::Counter& submits_counter_;
  util::Counter& commits_counter_;
  std::string credential_;
  std::uint64_t submits_sent_ = 0;
  std::uint64_t commits_sent_ = 0;
};

}  // namespace condorg::gram
