#include "mc/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "mc/dpor.hpp"
#include "mc/harness.hpp"

namespace rc11::mc {

namespace {

/// Progress heartbeat of the sequential explorers. Callers test
/// heartbeat_due() inline, so a visited state costs one branch.
void emit_heartbeat(const ExploreOptions& options, const ExploreStats& stats,
                    std::size_t frontier, const SeenSet& seen) {
  obs::ProgressSnapshot snap;
  snap.states = stats.states;
  snap.transitions = stats.transitions;
  snap.finals = stats.finals;
  snap.max_depth = stats.max_depth;
  snap.frontier = frontier;
  snap.seen_bytes = options.dedup ? seen.bytes() : 0;
  snap.sleep_blocked = stats.sleep_blocked;
  options.telemetry->emit(std::move(snap));
}

// ===========================================================================
// Incremental spine DFS.
//
// One Config is mutated in place along the DFS spine: descending applies
// the chosen step (apply_step), backtracking undoes it (undo_step). No
// successor is ever materialized — a candidate is applied, fingerprinted,
// and immediately undone when the seen set merges it. Frames are pooled
// (the stack never shrinks its storage), so the per-node successor buffers
// are reused across the whole search. A visitor observing transitions
// (kObserve) costs one copy of the pre-state per transition; the flag is a
// template parameter so runs without on_transition keep a branch-free loop.
// ===========================================================================

struct SpineFrame {
  std::vector<interp::Step> steps;
  std::vector<StepSig> sigs;  ///< only filled when por is on
  std::size_t next_step = 0;
  /// Index (into the parent frame's steps) of the transition that entered
  /// this frame; trace entries are rendered lazily on the abort path only
  /// (make_entry allocates a formatted note per entry).
  std::size_t in_index = 0;
  StateId id = kNoState;
  SleepSet sleep;
  interp::StepUndo undo;  ///< undo record of the incoming transition
};

template <bool kObserve>
ExploreResult explore_incremental(const interp::Config& start,
                                  const ExploreOptions& options,
                                  const Visitor& visitor) {
  const bool por = options.por == PorMode::kSleepSets;

  ExploreResult result;
  SeenSet seen;
  std::unordered_map<StateId, SleepSet> sleep_store;
  const interp::StepEnumCounters enum_base = interp::step_enum_counters();

  interp::Config cur = start;  // the spine configuration
  interp::Config pre;          // pre-state copy shown to on_transition

  // Frame pool: frames at depth <= high-water mark keep their buffers.
  std::vector<SpineFrame> stack;
  std::size_t depth = 0;  // frames in use = depth + 1
  const auto frame = [&](std::size_t d) -> SpineFrame& {
    if (d >= stack.size()) stack.resize(d + 1);
    return stack[d];
  };

  auto build_trace = [&](std::size_t upto_depth) {
    Trace t;
    // Frame 0 is the initial configuration; frame i was entered by its
    // parent's step in_index.
    for (std::size_t i = 1; i <= upto_depth; ++i) {
      t.entries.push_back(make_entry(stack[i - 1].steps[stack[i].in_index]));
    }
    return t;
  };

  auto visit_state = [&](const interp::Config& c) -> bool {
    ++result.stats.states;
    if (options.telemetry != nullptr && options.telemetry->heartbeat_due()) {
      emit_heartbeat(options, result.stats, depth + 1, seen);
    }
    if (visitor.on_state && !visitor.on_state(c)) return false;
    if (c.terminated()) {
      ++result.stats.finals;
      if (visitor.on_final && !visitor.on_final(c)) return false;
    }
    return true;
  };

  auto finish_stats = [&] {
    const interp::StepEnumCounters& ec = interp::step_enum_counters();
    result.stats.enum_threads_reused = ec.reused - enum_base.reused;
    result.stats.enum_threads_recomputed =
        ec.recomputed - enum_base.recomputed;
    result.stats.peak_seen_bytes = options.dedup ? seen.bytes() : 0;
    for (const auto& [id, sleep] : sleep_store) {
      (void)id;
      result.stats.peak_seen_bytes +=
          sizeof(std::pair<const StateId, SleepSet>) + 2 * sizeof(void*) +
          sleep.capacity() * sizeof(StepSig);
    }
  };

  auto prepare_frame = [&](SpineFrame& f) {
    f.next_step = 0;
    f.sigs.clear();
    {
      obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
      interp::enumerate_steps(cur, options.step, f.steps);
    }
    if (por) sigs_of(f.steps, cur.exec, f.sigs, cur.has_sc_fence);
  };

  {
    SpineFrame& root = frame(0);
    root.id = kNoState;
    root.sleep.clear();
    if (options.dedup) {
      obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
      root.id = seen.insert(cur.fingerprint()).id;
    }
    if (!visit_state(cur)) {
      result.aborted = true;
      finish_stats();
      return result;
    }
    prepare_frame(root);
    if (por) sleep_store[root.id] = {};
  }

  while (true) {
    result.stats.max_depth = std::max(result.stats.max_depth, depth + 1);
    SpineFrame& top = frame(depth);
    if (top.next_step >= top.steps.size()) {
      if (depth == 0) break;
      {
        obs::ScopedPhase undo_phase(obs::Phase::kUndo);
        undo_step(cur, top.undo);
      }
      --depth;
      continue;
    }
    const std::size_t step_index = top.next_step++;
    if (por && sleep_contains(top.sleep, top.sigs[step_index])) {
      ++result.stats.por_pruned;
      continue;
    }
    ++result.stats.transitions;

    // Apply in place; the successor's frame owns the undo record. NOTE:
    // frame() may grow the pool and invalidate `top` — from here on the
    // current frame is re-fetched as frame(depth).
    SpineFrame& nf = frame(depth + 1);
    const interp::Step& step = frame(depth).steps[step_index];
    if constexpr (kObserve) pre = cur;
    c11::EventId event = c11::kNoEvent;
    {
      obs::ScopedPhase apply_phase(obs::Phase::kApply);
      event = interp::apply_step(cur, step, options.step, nf.undo);
    }
    if constexpr (kObserve) {
      if (!observe_transition(visitor.on_transition, pre, cur, step, event)) {
        result.aborted = true;
        result.abort_trace = build_trace(depth);
        result.abort_trace.entries.push_back(make_entry(step));
        finish_stats();
        return result;
      }
    }

    nf.id = kNoState;
    nf.sleep.clear();
    if (por) {
      nf.sleep =
          successor_sleep(frame(depth).sleep, frame(depth).sigs, step_index);
    }
    bool revisit = false;
    if (options.dedup) {
      InsertResult ins;
      {
        obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
        ins = seen.insert(cur.fingerprint(), frame(depth).id,
                          static_cast<std::uint32_t>(step_index));
      }
      nf.id = ins.id;
      if (!ins.inserted) {
        if (!por) {
          ++result.stats.merged;
          obs::ScopedPhase undo_phase(obs::Phase::kUndo);
          undo_step(cur, nf.undo);
          continue;
        }
        SleepSet& stored = sleep_store[ins.id];
        if (is_subset(stored, nf.sleep)) {
          ++result.stats.merged;
          obs::ScopedPhase undo_phase(obs::Phase::kUndo);
          undo_step(cur, nf.undo);
          continue;
        }
        stored = intersection(stored, nf.sleep);
        nf.sleep = stored;
        revisit = true;
      } else if (por) {
        sleep_store[ins.id] = nf.sleep;
      }
    }

    if (!revisit && result.stats.states >= options.max_states) {
      result.stats.truncated = true;
      finish_stats();
      return result;
    }

    nf.in_index = step_index;
    if (!revisit && !visit_state(cur)) {
      result.aborted = true;
      result.abort_trace = build_trace(depth);
      result.abort_trace.entries.push_back(make_entry(step));
      finish_stats();
      return result;
    }
    ++depth;
    prepare_frame(frame(depth));
  }
  finish_stats();
  return result;
}

}  // namespace

ExploreResult explore(const lang::Program& program,
                      const ExploreOptions& options, const Visitor& visitor) {
  return explore_from(interp::initial_config(program), options, visitor);
}

const char* por_mode_name(PorMode m) {
  switch (m) {
    case PorMode::kNone:
      return "none";
    case PorMode::kSleepSets:
      return "sleep";
    case PorMode::kSourceSets:
      return "source";
    case PorMode::kSourceSetsSleep:
      return "source-sleep";
    case PorMode::kOptimal:
      return "optimal";
    case PorMode::kOptimalParsimonious:
      return "optimal-parsimonious";
  }
  return "unknown";
}

std::optional<PorMode> por_mode_from_name(std::string_view name) {
  for (const PorMode m :
       {PorMode::kNone, PorMode::kSleepSets, PorMode::kSourceSets,
        PorMode::kSourceSetsSleep, PorMode::kOptimal,
        PorMode::kOptimalParsimonious}) {
    if (name == por_mode_name(m)) return m;
  }
  return std::nullopt;
}

ExploreResult explore_from(const interp::Config& start,
                           const ExploreOptions& options,
                           const Visitor& visitor) {
  // The DPOR modes run on the tree-engine harness (dpor.hpp); the others
  // on the apply/undo spine.
  if (is_dpor(options.por)) return explore_tree(start, options, visitor);

  // Telemetry: the sequential engines run under a single WorkerScope (track
  // 0); the profile delta against the run-start baseline supports a shared
  // Telemetry across several explorations (e.g. a litmus catalogue tour).
  obs::PhaseProfile profile_base;
  if (options.telemetry != nullptr) profile_base = options.telemetry->profile();
  ExploreResult result;
  {
    obs::WorkerScope obs_scope(options.telemetry, 0);
    result = visitor.on_transition
                 ? explore_incremental<true>(start, options, visitor)
                 : explore_incremental<false>(start, options, visitor);
  }
  if (options.telemetry != nullptr) {
    result.phases = options.telemetry->profile() - profile_base;
  }
  return result;
}

}  // namespace rc11::mc
