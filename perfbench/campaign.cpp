// perfbench_campaign: run one benchmark campaign in this process and print
// its record as one JSON line on stdout.
//
//   perfbench_campaign --workload <name> --seed <n> --jobs <n>
//                      [--pass plain|profile|trace|detsan]
//                      [--defect none|lost|duplicate]
//
// Exit status: 0 when the correctness gate holds, 3 when it does not (the
// record is printed either way, with the failures listed), 2 on bad usage.
// perfbench/run.py drives this binary; see the comment at its top.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "condorg/util/json.h"
#include "workloads.h"

namespace cu = condorg::util;

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// A fixed, simulator-independent host workload: ordered and hashed map
// churn plus small sorts, the same mix of pointer chasing and branches the
// simulator's event loop and daemons run. Its time measures how fast the
// host runs this kind of code at the moment; run.py divides host times by
// it, because on a shared host that speed drifts by tens of percent over
// minutes for reasons that have nothing to do with the code under test.
double reference_kernel_s() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t sink = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::vector<std::uint64_t> block(64);
  // A working set of a few tens of MiB, like a campaign's, so the kernel
  // feels cache and memory contention the way the simulator does.
  constexpr std::uint64_t kKeys = 200000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ordered[key] = key;
    hashed[key] = key;
  }
  for (std::uint64_t i = 0; i < 150000; ++i) {
    const std::uint64_t key = next() % kKeys;
    switch (next() % 4) {
      case 0:
        ordered[key] = i;
        hashed[key] = i;
        break;
      case 1:
        if (const auto it = ordered.find(key); it != ordered.end()) {
          sink += it->second;
        }
        if (const auto it = hashed.find(key); it != hashed.end()) {
          sink += it->second;
        }
        break;
      case 2:
        ordered.erase(key);
        hashed.erase(key);
        break;
      default:
        for (std::uint64_t& v : block) v = next();
        std::sort(block.begin(), block.end());
        sink += block[3];
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Keep the loop observable so it cannot be optimised away.
  return sink == 1 ? seconds + 1e-12 : seconds;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_campaign: %s\nusage: perfbench_campaign --workload "
               "<name> --seed <n> --jobs <n> [--pass plain|profile|trace|"
               "detsan] [--defect none|lost|duplicate]\n",
               why);
  return 2;
}

bool parse_uint(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::CampaignSpec spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      spec.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, spec.seed)) return usage("bad --seed");
    } else if (flag == "--jobs") {
      if (!parse_uint(value, spec.jobs) || spec.jobs == 0) {
        return usage("bad --jobs");
      }
    } else if (flag == "--pass") {
      const std::string pass = value;
      if (pass == "plain") spec.pass = perfbench::Pass::kPlain;
      else if (pass == "profile") spec.pass = perfbench::Pass::kProfile;
      else if (pass == "trace") spec.pass = perfbench::Pass::kTrace;
      else if (pass == "detsan") spec.pass = perfbench::Pass::kDetsan;
      else return usage("bad --pass");
    } else if (flag == "--defect") {
      const std::string defect = value;
      if (defect == "none") spec.defect = perfbench::Defect::kNone;
      else if (defect == "lost") spec.defect = perfbench::Defect::kLost;
      else if (defect == "duplicate") spec.defect = perfbench::Defect::kDuplicate;
      else return usage("bad --defect");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (spec.workload.empty() || spec.jobs == 0) {
    return usage("--workload and --jobs are required");
  }

  perfbench::CampaignRecord record;
  try {
    record = perfbench::run_campaign(spec);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

  cu::JsonValue out = cu::JsonValue::object();
  out["workload"] = spec.workload;
  out["seed"] = spec.seed;
  out["jobs"] = spec.jobs;
  out["setup_s"] = record.setup_s;
  out["drive_s"] = record.drive_s;
  out["peak_rss_mib"] = peak_rss_mib();
  // After the RSS reading, so the kernel's maps never count as campaign
  // memory.
  out["reference_s"] = reference_kernel_s();
  out["submitted"] = record.submitted;
  out["completed"] = record.completed;
  cu::JsonValue tta = cu::JsonValue::array();
  for (const double t : record.tta_sim_s) tta.push_back(t);
  out["tta_sim_s"] = std::move(tta);
  out["makespan_sim_s"] = record.makespan_sim_s;
  out["fairness_jain"] = record.fairness_jain;
  out["kernel_digest"] = hex64(record.kernel_digest);
  out["outcome_digest"] = hex64(record.outcome_digest);
  cu::JsonValue failures = cu::JsonValue::array();
  for (const std::string& line : record.gate_failures) failures.push_back(line);
  out["gate_failures"] = std::move(failures);
  cu::JsonValue counters = cu::JsonValue::object();
  for (const auto& [name, value] : record.counters) counters[name] = value;
  out["counters"] = std::move(counters);
  cu::JsonValue layers = cu::JsonValue::object();
  for (const auto& [name, value] : record.layers) layers[name] = value;
  out["layers"] = std::move(layers);
  std::printf("%s\n", out.dump().c_str());
  return record.gate_failures.empty() ? 0 : 3;
}
