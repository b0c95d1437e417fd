#include "condorg/sim/world.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "condorg/sim/det.h"

namespace condorg::sim {

World::World(std::uint64_t seed)
    : sim_(seed),
      net_(sim_, [this](const std::string& name) { return find_host(name); }) {
  // Every binary that builds a World honors CONDORG_DETSAN=1 at runtime,
  // and CONDORG_PROFILE=1 arms the kernel profiler the same way.
  det::arm_from_env();
  const char* profile = std::getenv("CONDORG_PROFILE");
  if (profile != nullptr && *profile != '\0' &&
      std::string_view(profile) != "0") {
    sim_.profiler().set_enabled(true);
  }
}

Host& World::add_host(const std::string& name) {
  auto [it, inserted] =
      hosts_.emplace(name, std::make_unique<Host>(sim_, name));
  if (!inserted) {
    throw std::invalid_argument("duplicate host name: " + name);
  }
  return *it->second;
}

Host* World::find_host(const std::string& name) {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Host& World::host(const std::string& name) {
  Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host: " + name);
  return *h;
}

std::vector<std::string> World::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& [name, host] : hosts_) names.push_back(name);
  return names;
}

}  // namespace condorg::sim
