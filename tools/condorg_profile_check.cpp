// Dynamic/static cross-check of the island-cut message classification.
//
// PR 6's analyzer (tools/analyze/condorg_partition.py) classifies the
// GRAM/GASS/MDS/GSI message types that cross the user/site/central
// partition boundary *statically*, from the source. This tool measures the
// same boundary *dynamically*: it arms sim::Profiler, runs one campaign
// that exercises every protocol leg (two-phase submission, staging, the
// per-site gram.probe_jobs, MyProxy refresh, MDS registration/query, and the
// rare recovery RPCs no healthy campaign emits — jm.ping,
// restart_jobmanager, update_gass, refresh_credential, cancel, the odd GASS
// verbs, grrp.unregister), then
// compares the set of message types observed crossing partitions in the
// profiler's traffic matrix against the report's cut classification.
//
// The two sets must agree exactly:
//   * a type classified but never observed means the scenario (or the
//     analyzer's notion of "cross-partition") has drifted from the code;
//   * a type observed but never classified means the static analyzer
//     missed a cut message — the exact bug it exists to prevent.
//
// With --proto, the gate becomes three-way: the checked-in protocol spec
// (src/proto/protocols.json, exported by tools/analyze/condorg_proto.py
// into proto_report.json) must equal the static cut, and the dynamic
// matrix must be a subset of the spec:
//
//     spec == static extraction ⊇ dynamic matrix
//
// so a message type cannot enter the island cut without a spec entry, and
// a spec entry cannot outlive the code that sends it.
//
// Usage: condorg_profile_check <partition_report.json>
//            [--proto proto_report.json] [--dump profile.json]
// Exit:  0 = sets agree, 1 = mismatch (details on stderr),
//        77 = report missing (ctest SKIP_RETURN_CODE).

#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/gass/client.h"
#include "condorg/gram/client.h"
#include "condorg/gsi/myproxy.h"
#include "condorg/sim/profiler.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/json.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cs = condorg::sim;
namespace cw = condorg::workloads;
namespace gsi = condorg::gsi;
namespace util = condorg::util;

namespace {

/// Strip the RPC reply suffix: the cut is classified by request type.
std::string base_type(const std::string& type) {
  const std::string suffix = ".reply";
  if (type.size() > suffix.size() &&
      type.compare(type.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return type.substr(0, type.size() - suffix.size());
  }
  return type;
}

/// Union of "messages" over every cross_host_edges entry whose from/to
/// partitions differ (the CONDOR shadow/startd protocol is user-internal
/// and stays out of the cut).
std::set<std::string> static_cut(const util::JsonValue& report,
                                 std::vector<std::string>& problems) {
  std::set<std::string> cut;
  const util::JsonValue* edges = report.find("cross_host_edges");
  if (edges == nullptr) {
    problems.push_back("partition report has no cross_host_edges");
    return cut;
  }
  for (const util::JsonValue& edge : edges->items()) {
    const util::JsonValue* from = edge.find("from");
    const util::JsonValue* to = edge.find("to");
    const util::JsonValue* messages = edge.find("messages");
    if (from == nullptr || to == nullptr || messages == nullptr) continue;
    if (from->as_string() == to->as_string()) continue;
    for (const util::JsonValue& message : messages->items()) {
      cut.insert(message.as_string());
    }
  }
  return cut;
}

struct Observation {
  std::set<std::string> cross_partition;  // base types crossing the cut
  std::string profile_json;               // to_json(false).dump()
};

/// Run the all-protocol campaign with the profiler armed and return the
/// base message types observed between hosts of *different* partitions.
Observation run_scenario(std::vector<std::string>& problems) {
  cw::GridTestbed testbed(7);
  testbed.world().sim().profiler().set_enabled(true);

  cw::SiteSpec pbs;
  pbs.name = "pbs.anl.gov";
  pbs.kind = cw::SiteKind::kPbs;
  pbs.cpus = 8;
  cw::Site& site0 = testbed.add_site(pbs);
  cw::SiteSpec pool;
  pool.name = "pool.wisc.edu";
  pool.kind = cw::SiteKind::kCondorPool;
  pool.cpus = 8;
  testbed.add_site(pool);
  condorg::mds::GiisServer& giis = testbed.enable_mds("giis.grid.org");

  // Host -> partition, mirroring the analyzer's classification: the agent
  // machine is "user", site front-ends and clusters are "site", and the
  // shared directory/credential services are "central".
  const std::map<std::string, std::string> partition_of = {
      {"submit.wisc.edu", "user"},         {"pbs.anl.gov", "site"},
      {"pbs.anl.gov.cluster", "site"},     {"pool.wisc.edu", "site"},
      {"pool.wisc.edu.cluster", "site"},   {"giis.grid.org", "central"},
      {"myproxy.ncsa.edu", "central"},
  };

  gsi::Pki pki(util::Rng(9));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  gsi::Credential user = ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0);
  gsi::MyProxyServer myproxy(testbed.world().add_host("myproxy.ncsa.edu"),
                             testbed.world().net(), pki);
  cs::Host& submit = testbed.add_submit_host("submit.wisc.edu");
  {
    gsi::MyProxyClient boot(submit, testbed.world().net(),
                            "profile.myproxy.boot");
    boot.store(myproxy.address(), "jfrey", "pw",
               user.delegate(pki, 0.0, 7 * 86400.0), [](bool) {});
    testbed.world().sim().run_until(10.0);
  }

  // Short seed proxy + MyProxy auto-refresh so myproxy.get shows up once
  // the campaign outlives the refresh threshold.
  core::AgentOptions options;
  options.user = "jfrey";
  options.credentials.use_myproxy = true;
  options.credentials.myproxy_server = myproxy.address();
  options.credentials.myproxy_user = "jfrey";
  options.credentials.myproxy_passphrase = "pw";
  options.credentials.scan_interval = 300.0;
  options.credentials.refresh_threshold = 1800.0;
  options.credentials.refresh_lifetime = 3600.0;
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu", options);
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();
  const gsi::Credential proxy =
      user.delegate(pki, testbed.world().now(), 3600.0);
  agent.credentials().set_credential(proxy);

  core::JobDescription desc;
  desc.universe = core::Universe::kGrid;
  desc.runtime_seconds = 300.0;
  desc.executable_size = 256 * 1024;
  desc.output_size = 2048;
  for (int i = 0; i < 4; ++i) agent.submit(desc);
  desc.runtime_seconds = 8000.0;  // outlives the proxy refresh threshold
  const std::uint64_t long_id = agent.submit(desc);

  // Run until the long job holds a contact (the short jobs complete along
  // the way, exercising submit/commit/callback, the site probe and both
  // stagings).
  while (testbed.world().now() < 4000.0 &&
         agent.query(long_id)->gram_contact.empty()) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) break;
  }
  const std::string contact = agent.query(long_id)->gram_contact;
  if (contact.empty()) {
    problems.push_back("long job never obtained a GRAM contact");
    return {};
  }

  // The recovery/maintenance RPCs no healthy campaign sends: drive them
  // directly, exactly as the GridManager's recovery ladder would.
  condorg::gram::GramClient extra(submit, testbed.world().net(),
                                  "profile.check");
  extra.set_credential(proxy);
  extra.ping_jobmanager(contact, [](bool) {});
  extra.update_gass(contact, agent.gridmanager().gass_address(),
                    [](bool) {});
  extra.refresh_remote_credential(contact, [](bool) {});
  testbed.world().sim().run_until(testbed.world().now() + 120.0);
  extra.restart_jobmanager(contact, [](auto) {});
  testbed.world().sim().run_until(testbed.world().now() + 120.0);

  // GASS verbs the standard stage-in/stage-out path never uses, sent from
  // the site front-end to the agent's GASS server (the classified site ->
  // user direction).
  condorg::gass::FileClient files(*site0.frontend, testbed.world().net(),
                                  "profile.gass");
  files.set_credential(proxy);
  const cs::Address gass = agent.gridmanager().gass_address();
  files.put(gass, "profile.out", "data", 4, [](bool) {});
  files.append(gass, "profile.log", "line\n", 5, [](bool) {}, 600.0,
               "profiler", 1);
  files.stat(gass, "profile.log", [](auto) {});
  files.get(gass, "profile.out", [](auto) {});
  files.pull(gass, "profile.pulled", gass, "profile.out", [](bool) {});

  // MDS queries (a personal broker's view) and the unregister leg.
  condorg::mds::MdsClient mds(submit, testbed.world().net(), "profile.mds");
  mds.query(giis.address(), "", [](auto) {});
  mds.lookup(giis.address(), "pbs.anl.gov", [](auto) {});
  cs::RpcClient grrp(*site0.frontend, testbed.world().net(), "profile.grrp");
  cs::Payload unreg;
  unreg.set("name", "pool.wisc.edu");
  grrp.call(giis.address(), "grrp.unregister", std::move(unreg), 30.0,
            [](bool, const cs::Payload&) {});
  testbed.world().sim().run_until(testbed.world().now() + 300.0);

  // Hold the long job past the first credential scan that finds the seed
  // proxy under its refresh threshold (1800s left of 3600s), so the agent
  // fetches a fresh proxy from MyProxy and re-delegates it site-side.
  testbed.world().sim().run_until(2500.0);

  // Cancel tears down the long job's JobManager (jm.cancel crosses).
  extra.cancel(contact, [](bool) {});
  agent.remove(long_id);
  testbed.world().sim().run_until(testbed.world().now() + 600.0);

  Observation out;
  const cs::Profiler& profiler = testbed.world().sim().profiler();
  for (const auto& [key, cell] : profiler.messages()) {
    const auto& [from, to, daemon, type] = key;
    (void)daemon;
    (void)cell;
    const auto from_it = partition_of.find(from);
    const auto to_it = partition_of.find(to);
    if (from_it == partition_of.end() || to_it == partition_of.end()) {
      problems.push_back("host outside the partition map: " + from + " -> " +
                         to);
      continue;
    }
    if (from_it->second == to_it->second) continue;
    out.cross_partition.insert(base_type(type));
  }
  out.profile_json = profiler.to_json(false).dump();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::string proto_path;
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump" && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (arg == "--proto" && i + 1 < argc) {
      proto_path = argv[++i];
    } else if (report_path.empty()) {
      report_path = arg;
    } else {
      std::cerr << "usage: condorg_profile_check <partition_report.json>"
                   " [--proto proto_report.json] [--dump profile.json]\n";
      return 2;
    }
  }
  if (report_path.empty()) {
    std::cerr << "usage: condorg_profile_check <partition_report.json>"
                 " [--proto proto_report.json] [--dump profile.json]\n";
    return 2;
  }

  std::ifstream in(report_path);
  if (!in) {
    std::cout << "SKIP: " << report_path
              << " not found (run the analyze.partition stage first)\n";
    return 77;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto report = util::JsonValue::parse(buffer.str());
  if (!report) {
    std::cerr << "FAIL: " << report_path << " is not valid JSON\n";
    return 1;
  }

  std::vector<std::string> problems;
  const std::set<std::string> classified = static_cut(*report, problems);

  // Spec leg of the triangle (optional, third analyzer's report).
  bool have_spec = false;
  std::set<std::string> spec;
  if (!proto_path.empty()) {
    std::ifstream proto_in(proto_path);
    if (!proto_in) {
      std::cout << "SKIP: " << proto_path
                << " not found (run the analyze.proto stage first)\n";
      return 77;
    }
    std::stringstream proto_buffer;
    proto_buffer << proto_in.rdbuf();
    const auto proto = util::JsonValue::parse(proto_buffer.str());
    if (!proto) {
      std::cerr << "FAIL: " << proto_path << " is not valid JSON\n";
      return 1;
    }
    const util::JsonValue* cut_types = proto->find("cut_types");
    if (cut_types == nullptr) {
      std::cerr << "FAIL: " << proto_path << " has no cut_types\n";
      return 1;
    }
    have_spec = true;
    for (const util::JsonValue& type : cut_types->items()) {
      spec.insert(type.as_string());
    }
    // spec == static: every spec'd cut type must be classified as crossing
    // by the partition analyzer, and vice versa.
    for (const std::string& type : spec) {
      if (classified.count(type) == 0) {
        problems.push_back(
            "in protocol spec but not in the static cut: " + type);
      }
    }
    for (const std::string& type : classified) {
      if (spec.count(type) == 0) {
        problems.push_back(
            "in the static cut but missing from the protocol spec: " + type);
      }
    }
  }

  const Observation observed = run_scenario(problems);

  // spec ⊇ dynamic: nothing may cross the cut without a spec entry. (The
  // reverse is not required here — spec == static already ties the spec to
  // the code, and static == dynamic is checked below.)
  if (have_spec) {
    for (const std::string& type : observed.cross_partition) {
      if (spec.count(type) == 0) {
        problems.push_back(
            "observed crossing but missing from the protocol spec: " + type);
      }
    }
  }

  for (const std::string& type : classified) {
    if (observed.cross_partition.count(type) == 0) {
      problems.push_back("classified but never observed crossing: " + type);
    }
  }
  for (const std::string& type : observed.cross_partition) {
    if (classified.count(type) == 0) {
      problems.push_back("observed crossing but not classified: " + type);
    }
  }

  if (!dump_path.empty() && !observed.profile_json.empty()) {
    std::ofstream out(dump_path);
    out << observed.profile_json << "\n";
  }

  std::cout << "classified cut types: " << classified.size()
            << ", observed cross-partition types: "
            << observed.cross_partition.size();
  if (have_spec) std::cout << ", spec cut types: " << spec.size();
  std::cout << "\n";
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::cerr << "FAIL: " << problem << "\n";
    }
    return 1;
  }
  std::cout << (have_spec
                    ? "OK: spec == static cut ⊇ dynamic traffic matrix\n"
                    : "OK: traffic matrix agrees with the static cut\n");
  return 0;
}
