// Optimal source-set DPOR with wakeup trees (mc/wakeup.hpp), instantiated
// for the interpreted RA semantics: explore_tree's policy for
// PorMode::kOptimal and kOptimalParsimonious.
//
// The stateless source-set policy (mc/dpor.hpp) inserts *backtrack
// threads*: a race reversal schedules one initial thread at the racing
// node and lets free exploration take it from there. Free exploration can
// wander into territory an earlier sibling subtree already covers, where
// the sleep filter kills the execution — the prefix explored to get there
// was wasted (stats.sleep_blocked / stats.redundant_transitions), and on
// all-conflicting workloads this redundancy can push the visited
// transition count past full exploration.
//
// This engine replaces blind backtrack insertion with *parsimonious race
// reversal*: when the race (e, t) is detected on the explored trace E,
// the whole reversed-race continuation v = notdep(e, E).t is computed
// from the trace and inserted into the wakeup tree of the node at
// pre(E, e) — subsumed against the branches already explored or scheduled
// there, and skipped when a weak initial of v sleeps at that node.
// Exploration at a node with a non-empty wakeup tree follows the tree's
// branches exactly (one prescribed step per level, with the observed
// write resolved by frame-independent canonical event id); free thread
// scheduling happens only where the tree is empty. Executions therefore
// follow continuations that are known not to be covered: the engine
// explores (at most) one interleaving per Mazurkiewicz trace —
// stats.sleep_blocked is zero across the whole litmus catalogue and the
// transition count never exceeds the stateless engine's
// (tests/test_dpor.cpp asserts both; tests/test_fuzz.cpp extends the
// transition bound and the full differential oracle to a >=200-program
// generator sweep). The optimality theorem this implements assumes
// thread-deterministic steps; under heavy RMW data nondeterminism
// (several enabled instances per thread, reversals racing on them) a
// small residue of sleep-blocked executions can remain — still ~25x
// fewer than stateless source-set DPOR on the generator family, with
// soundness untouched.
//
// PorMode::kOptimal inserts the full continuation v;
// PorMode::kOptimalParsimonious prunes v to its dependent core (the steps
// with a dependence path to t — see wakeup.hpp) for shorter sequences and
// cheaper subsumption at the price of the strict zero-blocked guarantee.
// The sleep filter is integral to the algorithm and always on.
//
// The engine is the optimal policy of the shared tree-engine harness
// (mc/harness.hpp; entry point explore_tree in dpor.hpp): it runs
// sequentially (workers = 1, deterministic, traces replay under
// tau_compress = true) and work-stealing in parallel. Shared tree nodes
// carry their wakeup tree and executed prefix behind the node mutex, so
// race reversals discovered in stolen subtrees insert wakeup sequences
// into ancestors soundly, and a branch inserted into a node whose owner
// finished long ago simply enqueues a fresh work item for it.
#pragma once

#include "mc/dpor.hpp"
