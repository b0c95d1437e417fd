// Fixture: user-partition implementation with three seeded violations —
// a mutable global, a cross-partition reference, and a direct call on a
// site-partition daemon object.
#include "condorg/core/fixture_schedd.h"

#include "condorg/gram/fixture_gatekeeper.h"

namespace condorg::core {

// SEEDED VIOLATION (mutable-global): file-scope mutable state two hosts
// could share behind the network's back.
static int g_retry_count = 0;

void FixtureSchedd::poke(gram::FixtureGatekeeper& gatekeeper) {
  ++g_retry_count;
  // SEEDED VIOLATION (cross-partition-ref + cross-partition-call): a
  // user-partition daemon holding and directly invoking a site-partition
  // object instead of sending a message.
  gram::FixtureGatekeeper& gk = gatekeeper;
  gk.submit_direct(g_retry_count);
}

}  // namespace condorg::core
