#include "condorg/sim/network.h"

#include <cmath>
#include <stdexcept>

#include "condorg/sim/det.h"
#include "condorg/sim/schedule_controller.h"

namespace condorg::sim {

Address Address::parse(const std::string& text) {
  const auto pos = text.find('/');
  if (pos == std::string::npos) return Address{text, ""};
  return Address{text.substr(0, pos), text.substr(pos + 1)};
}

std::int64_t Payload::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::uint64_t Payload::get_uint(const std::string& key,
                                std::uint64_t fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

double Payload::get_double(const std::string& key, double fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

bool Payload::get_bool(const std::string& key, bool fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  return it->second == "1" || it->second == "true";
}

std::string Payload::serialize() const {
  std::string out;
  for (const auto& [key, value] : fields_) {
    if (!out.empty()) out.push_back('\x1e');
    out += key;
    out.push_back('\x1f');
    out += value;
  }
  return out;
}

Payload Payload::deserialize(const std::string& text) {
  Payload payload;
  if (text.empty()) return payload;
  for (const std::string& pair : util::split(text, '\x1e')) {
    const auto sep = pair.find('\x1f');
    if (sep == std::string::npos) continue;
    payload.fields_[pair.substr(0, sep)] = pair.substr(sep + 1);
  }
  return payload;
}

std::string Payload::debug_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ", ";
    first = false;
    out += key + "=" + value;
  }
  out += "}";
  return out;
}

Network::Network(Simulation& sim,
                 std::function<Host*(const std::string&)> resolver)
    : sim_(sim),
      resolver_(std::move(resolver)),
      rng_(sim.make_rng("network")) {}

void Network::set_link(const std::string& a, const std::string& b,
                       const LinkConfig& config) {
  const auto [lo, hi] = ordered(a, b);
  links_.insert_or_assign(HostPair(lo, hi), config);
}

const LinkConfig& Network::link(const std::string& a,
                                const std::string& b) const {
  const auto it = links_.find(ordered(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

void Network::set_partitioned(const std::string& a, const std::string& b,
                              bool value) {
  const auto [lo, hi] = ordered(a, b);
  if (value) {
    partitions_.emplace(lo, hi);
  } else if (const auto it = partitions_.find(HostPairView{lo, hi});
             it != partitions_.end()) {
    partitions_.erase(it);
  }
}

bool Network::partitioned(const std::string& a, const std::string& b) const {
  return partitions_.contains(ordered(a, b)) || isolated_.contains(a) ||
         isolated_.contains(b);
}

void Network::set_isolated(const std::string& host, bool isolated) {
  if (isolated) {
    isolated_.insert(host);
  } else {
    isolated_.erase(host);
  }
}

bool Network::isolated(const std::string& host) const {
  return isolated_.count(host) > 0;
}

void Network::send(Message message) {
  ++sent_;
  // Local delivery (same host) bypasses the WAN: no loss, tiny latency.
  const bool local = message.from.host == message.to.host;
  const LinkConfig* cfg = nullptr;  // the WAN link; unused for local sends
  if (!local) {
    if (partitioned(message.from.host, message.to.host)) {
      ++blocked_;
      return;
    }
    cfg = &link(message.from.host, message.to.host);
    if (cfg->loss_probability > 0.0 && rng_.chance(cfg->loss_probability)) {
      ++lost_;
      return;
    }
  }
  double latency;
  if (local) {
    latency = 1e-4;
  } else if (const ScheduleController* ctl = sim_.controller()) {
    // Exploration mode: snap delivery up to the next quantum boundary (and
    // skip the jitter draw) so concurrently in-flight messages tie on their
    // delivery timestamp — the controller then permutes delivery order via
    // the kernel's bucket pick.
    const double quantum = ctl->delivery_quantum();
    const double raw = sim_.now() + cfg->latency;
    latency = std::ceil(raw / quantum) * quantum - sim_.now();
    if (latency <= 0.0) latency = quantum;
  } else {
    latency = cfg->latency +
              (cfg->jitter > 0.0 ? rng_.uniform(0.0, cfg->jitter) : 0.0);
  }
  sim_.schedule_at(sim_.now() + latency, [this, message = std::move(message)] {
    // Partition may have appeared while in flight.
    if (message.from.host != message.to.host &&
        partitioned(message.from.host, message.to.host)) {
      ++blocked_;
      return;
    }
    Host* dest = resolver_(message.to.host);
    if (dest == nullptr || !dest->alive()) {
      ++dead_destination_;
      return;
    }
    const Host::Handler* handler = dest->find_service(message.to.service);
    if (handler == nullptr) {
      ++dead_destination_;
      return;
    }
    ++delivered_;
    {
      // DetSan: the handler runs on the destination host. The tap is a
      // harness observer and stays outside the stamped scope.
      det::ScopedHost scope(dest);
      Profiler& profiler = sim_.profiler();
      if (profiler.enabled()) {
        const std::uint64_t start = Profiler::clock_ns();
        (*handler)(message);
        profiler.record_message(message, Profiler::clock_ns() - start);
      } else {
        (*handler)(message);
      }
    }
    if (tap_) tap_(message);
  });
}

double Network::transfer_seconds(const std::string& a, const std::string& b,
                                 std::uint64_t bytes) const {
  if (a == b) return 1e-4;
  const LinkConfig& cfg = link(a, b);
  return cfg.latency + static_cast<double>(bytes) * 8.0 / cfg.bandwidth_bps;
}

}  // namespace condorg::sim
