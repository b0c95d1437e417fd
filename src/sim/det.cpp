#include "condorg/sim/det.h"

#include <cstdio>
#include <cstdlib>

#include "condorg/sim/host.h"

namespace condorg::det {
namespace {

// Storage cap: a broken build can violate on every event; keeping the
// first kMaxRecorded is enough to diagnose while bounding memory.
constexpr std::size_t kMaxRecorded = 256;

std::vector<Violation>& storage() {
  // The sanitizer's own recording buffer, harvested by take_violations().
  // lint-allow(mutable-global): detsan's own state
  static std::vector<Violation> v;
  return v;
}
// lint-allow(mutable-global): detsan's own state, see storage() above
std::size_t g_count = 0;

// Stamp of the host whose event is being dispatched (null outside event
// context). Kept TU-local so the header exposes only the arm flag.
// lint-allow(mutable-global): dispatch stamp, see above
const sim::Host* g_current = nullptr;

void record(const sim::Host* owner, const char* label) {
  Violation violation;
  violation.when = owner != nullptr ? owner->now() : 0.0;
  violation.owner = owner != nullptr ? owner->name() : "<null>";
  violation.accessor = g_current != nullptr ? g_current->name() : "<null>";
  violation.label = label != nullptr ? label : "<unlabelled>";
  ++g_count;
  std::vector<Violation>& v = storage();
  if (v.size() >= kMaxRecorded) return;
  v.push_back(std::move(violation));
}

}  // namespace

namespace detail {

// The process-wide arm flag is written only by set_enabled/arm_from_env
// before events run.
#ifdef CONDORG_DETSAN
// lint-allow(mutable-global): detsan arm flag, see above
bool g_enabled = true;
#else
// lint-allow(mutable-global): detsan arm flag, see above
bool g_enabled = false;
#endif

const sim::Host* swap_current(const sim::Host* host) {
  const sim::Host* previous = g_current;
  g_current = host;
  return previous;
}

void check_slow(const sim::Host* owner, const char* label) {
  if (g_current != nullptr && g_current != owner) record(owner, label);
}

}  // namespace detail

std::string Violation::format() const {
  char when_buf[32];
  std::snprintf(when_buf, sizeof(when_buf), "%.3f", when);
  return std::string("t=") + when_buf + " detsan: host '" + accessor +
         "' accessed '" + label + "' owned by host '" + owner + "'";
}

const sim::Host* current_host() { return g_current; }

void set_enabled(bool on) { detail::g_enabled = on; }

bool arm_from_env() {
  const char* env = std::getenv("CONDORG_DETSAN");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    detail::g_enabled = true;
  }
  return detail::g_enabled;
}

std::vector<Violation> take_violations() {
  std::vector<Violation> out = std::move(storage());
  storage().clear();
  g_count = 0;
  return out;
}

std::size_t violation_count() { return g_count; }

std::size_t report(const char* what) {
  const std::size_t count = violation_count();
  const std::vector<Violation> violations = take_violations();
  for (const Violation& v : violations) {
    // lint-allow(direct-io): report() is the CLI epilogue; stderr is the
    std::fprintf(stderr, "%s: %s\n", what, v.format().c_str());  // contract
  }
  if (count > violations.size()) {
    // lint-allow(direct-io): CLI epilogue, see above
    std::fprintf(stderr, "%s: ... %zu further violations not stored\n", what,
                 count - violations.size());
  }
  if (count > 0) {
    // lint-allow(direct-io): CLI epilogue, see above
    std::fprintf(stderr, "%s: %zu detsan ownership violation(s)\n", what,
                 count);
  }
  return count;
}

}  // namespace condorg::det
