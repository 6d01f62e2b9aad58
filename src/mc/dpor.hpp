// Tree-shaped dynamic partial-order reduction: the entry point of the two
// DPOR engines, and source-set DPOR (Abdulla, Aronis, Jonsson, Sagonas —
// the algorithm family PAPERS.md's "Parsimonious Optimal Dynamic Partial
// Order Reduction" refines), instantiated for the interpreted RA
// semantics.
//
// Both engines explore the *transition tree* (no cross-branch merging —
// the per-node scheduling state is path-dependent) on one work-stealing
// harness (mc/harness.hpp) and differ only in how a detected race is
// reversed: source-set DPOR schedules one initial thread of the reversal
// (this header), optimal DPOR inserts the whole reversed continuation
// into a wakeup tree (optimal.hpp). Source-set DPOR schedules at each node
// only a dynamically grown source set of threads:
//
//   * expanding a node runs ALL enabled transitions of one scheduled
//     thread (value nondeterminism — which write a read observes, where a
//     write lands in mo — is data nondeterminism within the thread and is
//     always fully explored);
//   * after executing a step t, every *reversible race* on the spine is
//     detected: an earlier step e of another thread, dependent with t
//     (mc/independence.hpp), with no intermediate happens-before chain
//     e ->hb e'' ->hb t. For each such race at spine prefix E'', the
//     initials of v = notdep(e, E).t are computed and, unless one is
//     already scheduled at E'', one of them is inserted as a backtrack
//     point (stats.backtracks);
//   * with PorMode::kSourceSetsSleep, a transition independent with the
//     step taken stays asleep in the child when an earlier-executed
//     sibling subtree already covers it; sleeping transitions are never
//     run (they are counted in stats.por_pruned).
//
// Soundness (differentially asserted by tests/test_dpor.cpp over the
// litmus catalogue and the fuzz generator): every Mazurkiewicz trace of
// every maximal execution is explored at least once, so reachability
// verdicts on terminated configurations, final-state fingerprint sets,
// outcome sets and race existence all agree with full exploration.
// Intermediate global states may be skipped — invariant checking must not
// use these modes (checker.cpp downgrades to sleep sets).
//
// The engines run sequentially (workers = 1: plain LIFO, fully
// deterministic — counterexamples replay) and in parallel: work items
// carry their node, and per-node scheduling state lives in the shared
// node behind its mutex, so a race reversal found in a stolen subtree
// schedules work at an ancestor kept alive by the spine's reference
// chain — at an ancestor whose owner finished long ago it simply enqueues
// a fresh work item.
#pragma once

#include <vector>

#include "mc/explorer.hpp"

namespace rc11::mc {

/// Runs tree-shaped DPOR from `start`. `options.por` picks the policy:
/// kOptimal / kOptimalParsimonious run optimal wakeup-tree DPOR
/// (optimal.hpp); kSourceSetsSleep runs source-set DPOR with the sleep
/// filter; any other mode runs plain kSourceSets. With workers > 1 the
/// tree is explored by work-stealing on util::ThreadPool and the visitor
/// callbacks must be thread-safe; `worker_stats`, when non-null, receives
/// per-worker counters.
///
/// The engine always forces step.tau_compress = true: scheduling points
/// are visible (memory) steps; deterministic silent/register steps are
/// fused into the preceding transition (loop unfoldings stay visible).
/// Returned traces replay (replay_trace) under tau_compress = true.
[[nodiscard]] ExploreResult explore_tree(
    const interp::Config& start, const ExploreOptions& options,
    const Visitor& visitor, std::size_t workers = 1,
    std::vector<WorkerStats>* worker_stats = nullptr);

}  // namespace rc11::mc
