#include "condorg/sim/profiler.h"

#include <chrono>
#include <string_view>
#include <utility>

namespace condorg::sim {

std::uint64_t Profiler::clock_ns() {
  // The profiler measures the simulator's own execution cost, which is the
  // one legitimate wall-clock read in sim-visible code; everything exported
  // deterministically (counts, bytes) ignores it.
  // lint-allow(wall-clock): profiler measures real handler cost, not sim time
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

std::string Profiler::daemon_family(const std::string& service) {
  // One JobManager service is registered per GRAM contact
  // ("gram.jm.<contact>", see gram::jobmanager_service); folding them keeps
  // the dispatch table bounded by daemon kinds, not by job count.
  constexpr std::string_view kJobManagerPrefix = "gram.jm.";
  if (service.rfind(kJobManagerPrefix, 0) == 0) return "gram.jm";
  return service;
}

void Profiler::record_message(const Message& message, std::uint64_t wall_ns) {
  Cell& cell = messages_[MessageKey(message.from.host, message.to.host,
                                    daemon_family(message.to.service),
                                    message.type)];
  ++cell.count;
  cell.bytes += message.size_bytes;
  cell.wall_ns += wall_ns;
}

void Profiler::record_timer(const std::string& host, std::uint64_t wall_ns) {
  Cell& cell = timers_[host];
  ++cell.count;
  cell.wall_ns += wall_ns;
}

std::map<std::string, Profiler::Cell> Profiler::cross_host_types() const {
  std::map<std::string, Cell> out;
  for (const auto& [key, cell] : messages_) {
    const auto& [from, to, daemon, type] = key;
    if (from == to) continue;
    Cell& agg = out[type];
    agg.count += cell.count;
    agg.bytes += cell.bytes;
    agg.wall_ns += cell.wall_ns;
  }
  return out;
}

util::JsonValue Profiler::to_json(bool include_wall) const {
  using util::JsonValue;
  JsonValue root = JsonValue::object();

  // Dispatch table: (to host, daemon, type) with senders folded.
  std::map<std::tuple<std::string, std::string, std::string>, Cell> dispatch;
  // Traffic matrix: from -> to -> type.
  std::map<std::string, std::map<std::string, std::map<std::string, Cell>>>
      matrix;
  for (const auto& [key, cell] : messages_) {
    const auto& [from, to, daemon, type] = key;
    Cell& d = dispatch[std::make_tuple(to, daemon, type)];
    d.count += cell.count;
    d.bytes += cell.bytes;
    d.wall_ns += cell.wall_ns;
    Cell& m = matrix[from][to][type];
    m.count += cell.count;
    m.bytes += cell.bytes;
    m.wall_ns += cell.wall_ns;
  }

  JsonValue dispatches = JsonValue::array();
  for (const auto& [key, cell] : dispatch) {
    JsonValue row = JsonValue::object();
    row["host"] = std::get<0>(key);
    row["daemon"] = std::get<1>(key);
    row["type"] = std::get<2>(key);
    row["count"] = cell.count;
    row["bytes"] = cell.bytes;
    if (include_wall) row["wall_ns"] = cell.wall_ns;
    dispatches.push_back(std::move(row));
  }
  root["dispatches"] = std::move(dispatches);

  JsonValue matrix_json = JsonValue::object();
  for (const auto& [from, dests] : matrix) {
    JsonValue dest_json = JsonValue::object();
    for (const auto& [to, types] : dests) {
      JsonValue type_json = JsonValue::object();
      for (const auto& [type, cell] : types) {
        JsonValue entry = JsonValue::object();
        entry["count"] = cell.count;
        entry["bytes"] = cell.bytes;
        if (include_wall) entry["wall_ns"] = cell.wall_ns;
        type_json[type] = std::move(entry);
      }
      dest_json[to] = std::move(type_json);
    }
    matrix_json[from] = std::move(dest_json);
  }
  root["traffic_matrix"] = std::move(matrix_json);

  JsonValue timers = JsonValue::object();
  for (const auto& [host, cell] : timers_) {
    JsonValue entry = JsonValue::object();
    entry["count"] = cell.count;
    if (include_wall) entry["wall_ns"] = cell.wall_ns;
    timers[host] = std::move(entry);
  }
  root["timers"] = std::move(timers);
  return root;
}

}  // namespace condorg::sim
