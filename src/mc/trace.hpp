// Counterexample / witness traces produced by the explorer.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "c11/action.hpp"
#include "interp/config.hpp"

namespace rc11::mc {

struct TraceEntry {
  c11::ThreadId thread = 0;
  bool silent = true;
  c11::Action action;  ///< meaningful when !silent
  std::string note;    ///< e.g. "loop unfold", "observed e3"
};

struct Trace {
  std::vector<TraceEntry> entries;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  [[nodiscard]] std::size_t size() const { return entries.size(); }

  /// One line per entry: "t2: wrR(f, 1) (observed e0)".
  [[nodiscard]] std::string to_string(
      const c11::VarTable* vars = nullptr) const;
};

/// Builds a trace entry from an enumerated step (replay_trace matches
/// entries on this rendering).
[[nodiscard]] TraceEntry make_entry(const interp::Step& step);

/// Replays a trace from the program's initial configuration by matching
/// each entry against the enumerated successors (thread, silence, action
/// and note identify a transition uniquely). Returns the configuration the
/// trace leads to, or nullopt if some entry matches no real transition —
/// the determinism check behind the counterexample-replay regression tests
/// and the parallel race reports.
[[nodiscard]] std::optional<interp::Config> replay_trace(
    const lang::Program& program, const Trace& trace,
    const interp::StepOptions& opts = {});

}  // namespace rc11::mc
