// Time-to-verdict harness: the pieces shared by the workload builders
// (workloads.cpp) and the pass loop (main.cpp).
//
// A workload is a list of queries plus a list of set-up items. A query is
// one verdict for one program and one mode -- front end, exploration,
// check -- and carries its own known answer. A set-up item is one call into
// the program's front end (lang::parse_litmus, litmus::import_litmus,
// vcgen::make_peterson*) that turns workload input into a checker-ready
// program; set-up items are timed separately for setup_s.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mc/checker.hpp"
#include "mc/statespace.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// What one query produced. Filled by the query body; read by its check and
// by the per-layer aggregation of the traced run.
struct Answer {
  bool verdict = false;  // reachable / holds / equivalent / sound
  std::set<rc11::mc::Outcome> outcomes;
  std::size_t outcome_count = 0;
  std::size_t outcome_states = 0;  // states of the outcome enumeration
  rc11::mc::ExploreStats stats;  // summed over the query's explorations
  std::size_t candidates = 0;      // axiomatic candidate executions
  std::size_t valid = 0;           // ... of which valid
  std::size_t rule_instances = 0;  // applicable Figure-4 rule instances
  std::vector<rc11::mc::WorkerStats> workers;  // parallel queries only
};

// A query's group: the requested --por mode of a sequential explorer
// query, or "parallel", "axiomatic", "vcgen".
struct Query {
  std::string id;
  std::string group;
  std::function<Answer(rc11::obs::Telemetry*)> run;
  // Returns "" when the answer is right, else why not.
  std::function<std::string(const Answer&)> check;
};

struct SetupItem {
  std::string id;
  std::function<void()> run;
};

struct Workload {
  std::vector<SetupItem> setup;
  std::vector<Query> queries;
};

// Shared slot for a reference answer that sibling queries compare with:
// the first run of the owning query fills it (workload order puts owners
// first), later runs of everyone compare against it.
using RefSlot = std::shared_ptr<std::optional<Answer>>;
inline RefSlot make_ref() { return std::make_shared<std::optional<Answer>>(); }

// --- Spans -------------------------------------------------------------------
//
// Recorded only in the traced run, around each call from the benchmark
// into a layer of the program. Kept in memory; written out once at the end.
struct SpanRec {
  const char* name = nullptr;  // static storage
  std::uint32_t query = 0;     // id of the query (or set-up item) it belongs to
  std::int32_t parent = -1;    // index into the span vector, -1 at the root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  bool on = false;
  std::uint32_t query = 0;
  std::vector<SpanRec> spans;
  std::vector<std::int32_t> open;

  std::int32_t begin(const char* name) {
    const auto idx = static_cast<std::int32_t>(spans.size());
    spans.push_back({name, query, open.empty() ? -1 : open.back(), now_ns(), 0});
    open.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx) {
    spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open.pop_back();
  }
};

Tracer& tracer();

// RAII span; a branch and nothing else when tracing is off.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracer().on) idx_ = tracer().begin(name);
  }
  ~Span() {
    if (idx_ >= 0) tracer().end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t idx_ = -1;
};

// --- Workloads ---------------------------------------------------------------

Workload make_litmus_suite(const std::string& corpus_dir);
Workload make_peterson_proof();
Workload make_fuzz_rmw(std::uint64_t seed);

// Known workload names, in a stable order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
