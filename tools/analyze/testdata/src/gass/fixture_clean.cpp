// Fixture: clean implementation file — messaging through the declared
// boundary (sim::Rpc / sim::Address) must NOT trip the cross-partition
// rules even though it names another partition's endpoint.
#include "condorg/gass/fixture_clean.h"

namespace condorg::gass {

void refresh(FixtureCleanCache& cache, sim::RpcClient& rpc) {
  // Legal cross-host cut: a message to the user-partition GASS server.
  rpc.call(sim::Address{"submit.example.org", "file.get"}, "file.get");
  (void)cache;
}

}  // namespace condorg::gass
