// Simulated wide-area network.
//
// Models the properties the paper's protocols are designed around:
//   * per-link latency (base + jitter) and bandwidth,
//   * message loss (motivates GRAM's two-phase commit),
//   * partitions (failure type F4: "failures in the network connecting the
//     two machines"), and
//   * destination crashes between send and delivery.
//
// Delivery is best-effort datagram semantics; reliability is built *above*
// this layer by the protocols, as in the real system.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "condorg/sim/host.h"
#include "condorg/sim/message.h"
#include "condorg/sim/simulation.h"

namespace condorg::sim {

struct LinkConfig {
  double latency = 0.05;           // one-way base latency, seconds
  double jitter = 0.01;            // uniform extra latency in [0, jitter)
  double loss_probability = 0.0;   // per-message drop chance
  double bandwidth_bps = 1.0e8;    // for bulk-transfer duration modelling
};

class Network {
 public:
  Network(Simulation& sim, std::function<Host*(const std::string&)> resolver);

  /// Default link parameters for pairs without an explicit override.
  void set_default_link(const LinkConfig& config) { default_link_ = config; }
  const LinkConfig& default_link() const { return default_link_; }

  /// Override parameters for a specific (unordered) host pair.
  void set_link(const std::string& a, const std::string& b,
                const LinkConfig& config);
  const LinkConfig& link(const std::string& a, const std::string& b) const;

  /// Sever / heal connectivity between two hosts (both directions).
  void set_partitioned(const std::string& a, const std::string& b,
                       bool partitioned);
  bool partitioned(const std::string& a, const std::string& b) const;

  /// Isolate a host from everyone (models an unplugged site).
  void set_isolated(const std::string& host, bool isolated);
  bool isolated(const std::string& host) const;

  /// Send a message. Returns immediately; the message is delivered after the
  /// link latency unless it is lost, a partition blocks it, or the
  /// destination host is down / lacks the service at delivery time.
  void send(Message message);

  /// Seconds a bulk transfer of `bytes` takes on the link a->b (latency +
  /// bytes/bandwidth). Loss/partition checks still apply to the messages
  /// that initiate such transfers.
  double transfer_seconds(const std::string& a, const std::string& b,
                          std::uint64_t bytes) const;

  // --- delivery statistics (for tests and benches) ---
  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t blocked_by_partition() const { return blocked_; }
  std::uint64_t dead_destination() const { return dead_destination_; }

  /// Optional tap invoked for every successfully delivered message
  /// (after the handler). Used by protocol traces in tests.
  void set_delivery_tap(std::function<void(const Message&)> tap) {
    tap_ = std::move(tap);
  }

 private:
  /// Unordered host pairs are stored smaller name first. The comparator is
  /// transparent, so link() and partitioned() look up a pair of views and
  /// copy no host name.
  using HostPair = std::pair<std::string, std::string>;
  using HostPairView = std::pair<std::string_view, std::string_view>;
  struct PairLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const std::string_view a_first = a.first;
      const std::string_view b_first = b.first;
      if (a_first != b_first) return a_first < b_first;
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };
  static HostPairView ordered(std::string_view a, std::string_view b) {
    return a <= b ? HostPairView{a, b} : HostPairView{b, a};
  }

  Simulation& sim_;
  std::function<Host*(const std::string&)> resolver_;
  LinkConfig default_link_;
  std::map<HostPair, LinkConfig, PairLess> links_;
  std::set<HostPair, PairLess> partitions_;
  std::set<std::string, std::less<>> isolated_;
  util::Rng rng_;
  std::function<void(const Message&)> tap_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t dead_destination_ = 0;
};

}  // namespace condorg::sim
