// Fixture for condorg_lint.py --self-test: every block below must trip
// exactly the rule named in the comment. This file is never compiled.
#include <cstdlib>
#include <ctime>
#include <functional>
#include <unordered_map>

// banned-rand
int noisy() { return std::rand(); }                    // banned-rand
// wall-clock
long stamp() { return time(nullptr); }                 // wall-clock

struct Table {
  std::unordered_map<int, int> cells_;
  int sum() const {
    int total = 0;
    for (const auto& [k, v] : cells_) total += v;      // unordered-iteration
    return total;
  }
};

struct Emitter {
  std::unordered_map<int, int> rows_;
  void dump() {
    // trips unordered-iteration AND unordered-trace-emit: the body emits
    // JSON, so iteration order becomes output order.
    for (const auto& [k, v] : rows_) {                 // unordered-trace-emit
      emit_json(k, v);
    }
  }
  void emit_json(int, int);
};

struct Base {
  virtual ~Base() = default;
  virtual void poke();                                 // fine: not derived
};
struct Derived : public Base {
  virtual void poke();                                 // virtual-in-derived
};

void fire() {
  std::function<void()> hook;
  hook();                                              // unchecked-function-call
}

void shout() { std::printf("loud\n"); }                // direct-io

struct Queue {
  std::unordered_map<int, int>* jobs();
};
int drain(Queue& schedd) {
  int n = 0;
  for (const auto& [id, job] : *schedd.jobs()) {       // schedd-full-scan
    n += job;
  }
  // idle_jobs() is an index read, not a scan — must NOT trip the rule:
  return n;
}

// unbalanced-span: spans that are opened but can never be closed.
struct FixtureTracer {
  int begin_span(const char* name);
  void end_span(int span);
  int begin_job(int job);
  void end_job(int job);
};
void span_lifecycle(FixtureTracer& t) {
  int orphan = t.begin_span("leaked");                 // unbalanced-span
  (void)orphan;
  t.begin_span("dropped");                             // unbalanced-span
  t.begin_job(1);                                      // unbalanced-span
  // A balanced pair must NOT trip the rule:
  int paired = t.begin_span("balanced");
  t.end_span(paired);
}

// raw-threading: concurrency primitives anywhere in src/. One hit only —
// the rule must fire on the primitive, not on mentions in comments.
struct Cache {
  std::mutex mu_;                                      // raw-threading
};

// Suppression forms must keep working:
int allowed_noise() {
  // lint-allow(banned-rand): fixture proves inline allows suppress
  return std::rand();
}
