// Exhaustive exploration of the interpreted RA semantics.
//
// The explorer performs DFS over configurations, deduplicating by canonical
// key, with visitor callbacks for states, transitions and terminated
// configurations. On top of it, checker.hpp provides the user-facing
// verification queries (invariants, reachability, outcome enumeration).
//
// Partial-order reduction is selected by ExploreOptions::por: sleep sets
// (state-preserving transition pruning), source-set DPOR (dpor.hpp; the
// default reduction when one is wanted — prunes redundant interleavings
// wholesale, preserving verdicts, final-state fingerprints and race
// reports but not every intermediate global state), or optimal
// wakeup-tree DPOR (optimal.hpp; removes the stateless engine's
// sleep-blocked redundancy).
#pragma once

#include <functional>
#include <optional>
#include <string_view>

#include "interp/config.hpp"
#include "mc/statespace.hpp"
#include "mc/trace.hpp"
#include "obs/telemetry.hpp"

namespace rc11::mc {

/// Which partial-order reduction the explorers apply.
enum class PorMode : std::uint8_t {
  /// Full exploration, no reduction.
  kNone,

  /// Sleep sets over the syntactic independence relation
  /// (mc/independence.hpp). Prunes transitions, never states: the set of
  /// reachable configurations — hence every invariant / reachability
  /// verdict — is preserved exactly. Honoured by the sequential explorer
  /// and the work-stealing parallel explorer (per-item sleep sets).
  kSleepSets,

  /// Source-set dynamic partial-order reduction (mc/dpor.hpp): race
  /// detection on the explored trace inserts backtrack points per
  /// source-set DPOR, so only a source set of threads is scheduled at
  /// each node. Explores at least one interleaving per Mazurkiewicz trace
  /// of every maximal execution: preserves reachability verdicts on
  /// terminated states, final-state fingerprints, outcome sets and race
  /// reports — but may skip intermediate global states, so
  /// check_invariant downgrades this mode to kSleepSets.
  kSourceSets,

  /// kSourceSets with sleep sets composed on top as a second filter
  /// (threads whose executions a sibling subtree already covers are put
  /// to sleep). The default reduction: strictly stronger pruning than
  /// either alone.
  kSourceSetsSleep,

  /// Optimal source-set DPOR with wakeup trees (mc/optimal.hpp,
  /// mc/wakeup.hpp): race reversal computes the whole reversed-race
  /// continuation v = notdep(e, E).t from the explored trace and inserts
  /// it into the racing node's wakeup tree (with subsumption against the
  /// branches already explored or scheduled there), so exploration is
  /// steered around everything a sibling subtree covers — no execution is
  /// ever started and then killed by the sleep filter
  /// (stats.sleep_blocked stays zero) and the visited-transition count
  /// never exceeds stateless source-set DPOR's. Same preservation
  /// guarantees (and the same intermediate-state caveat) as kSourceSets.
  kOptimal,

  /// kOptimal with *parsimonious* race reversal: the inserted wakeup
  /// sequence is pruned to the dependent core of v — the steps with a
  /// dependence path to the reversed step t, which are exactly the ones
  /// needed to re-enable t at the reversal point — so wakeup sequences
  /// stay short (less tree memory, cheaper subsumption) at the price of
  /// the strict zero-sleep-blocked guarantee.
  kOptimalParsimonious,
};

/// The reduction to use when a caller just asks for "POR": source-set DPOR
/// with the sleep-set filter.
inline constexpr PorMode kDefaultPor = PorMode::kSourceSetsSleep;

/// True iff the mode runs the stateless source-set DPOR engine (dpor.hpp).
[[nodiscard]] constexpr bool is_source_dpor(PorMode m) {
  return m == PorMode::kSourceSets || m == PorMode::kSourceSetsSleep;
}

/// True iff the mode runs the optimal wakeup-tree engine (optimal.hpp).
[[nodiscard]] constexpr bool is_optimal_dpor(PorMode m) {
  return m == PorMode::kOptimal || m == PorMode::kOptimalParsimonious;
}

/// True iff the mode runs one of the tree-shaped DPOR engines (source-set
/// or optimal): these share the DPOR contract — tau-compressed scheduling,
/// replayable traces, preserved verdicts/finals/races but not intermediate
/// global states (checkers downgrade them for invariant queries).
[[nodiscard]] constexpr bool is_dpor(PorMode m) {
  return is_source_dpor(m) || is_optimal_dpor(m);
}

/// Stable short name of a mode ("none", "sleep", "source", "source-sleep",
/// "optimal", "optimal-parsimonious") — used by the CLI and benches.
[[nodiscard]] const char* por_mode_name(PorMode m);

/// Inverse of por_mode_name; returns nullopt for unknown names.
[[nodiscard]] std::optional<PorMode> por_mode_from_name(std::string_view name);

struct ExploreOptions {
  interp::StepOptions step;

  /// Abort after visiting this many unique states (sets stats.truncated).
  std::size_t max_states = 5'000'000;

  /// Merge isomorphic configurations. Disable to traverse the raw
  /// transition tree (used by ablation benches). Ignored by the DPOR
  /// modes, which always run tree-shaped and use the seen set only to
  /// count unique states.
  bool dedup = true;

  /// Partial-order reduction mode; see PorMode. All modes preserve
  /// reachability verdicts, final-state fingerprints and race reports
  /// (differentially asserted in tests/test_dpor.cpp); pruned transitions
  /// are counted in stats.por_pruned and skip on_transition.
  PorMode por = PorMode::kNone;

  /// Exploration telemetry (obs/telemetry.hpp): phase profiling, progress
  /// heartbeats, Chrome-trace span recording. Null (the default) keeps
  /// every instrumentation point a thread-local load + branch — no clock
  /// reads — so plain-mode throughput is untouched. May be shared by
  /// several explorations (heartbeat counters then restart per run).
  obs::Telemetry* telemetry = nullptr;
};

/// Visitor callbacks. Any callback returning false aborts the search with
/// `aborted = true` (used to stop at the first violation/witness). Under
/// the parallel explorers the callbacks must be thread-safe.
struct Visitor {
  /// Called once per unique configuration (including the initial one).
  std::function<bool(const interp::Config&)> on_state;

  /// Called for every generated transition, before dedup of the target.
  /// The stateful explorers step one configuration in place, so an
  /// observed transition costs them one Config copy (the pre-state); runs
  /// without this callback take none.
  std::function<bool(const interp::Config&, const interp::ConfigStep&)>
      on_transition;

  /// Called for every unique terminated configuration.
  std::function<bool(const interp::Config&)> on_final;
};

struct ExploreResult {
  ExploreStats stats;
  /// Per-phase tick totals of this run; empty unless
  /// ExploreOptions::telemetry was set (the zero-overhead contract is
  /// pinned in tests/test_telemetry.cpp).
  obs::PhaseProfile phases;
  bool aborted = false;
  /// DFS path to the configuration that aborted the search (the last entry
  /// is the transition *into* that configuration). Empty if not aborted or
  /// aborted at the initial state.
  Trace abort_trace;
};

/// Runs the search from the program's initial configuration.
[[nodiscard]] ExploreResult explore(const lang::Program& program,
                                    const ExploreOptions& options,
                                    const Visitor& visitor);

/// Runs the search from an explicit starting configuration.
[[nodiscard]] ExploreResult explore_from(const interp::Config& start,
                                         const ExploreOptions& options,
                                         const Visitor& visitor);

}  // namespace rc11::mc
