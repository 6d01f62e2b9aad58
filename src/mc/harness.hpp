// Work-stealing harness shared by the explorers (internal header).
//
// Two layers:
//
//  * WorkerCore<Item>: the shared context of one work-stealing run — a
//    work deque, a WorkerStats record and a reporting slab per worker, the
//    seen set and the pending/stop/states/transitions/truncated atomics —
//    plus the one worker loop (pop, steal, back off, expand, heartbeat),
//    the progress snapshot, the step-enumeration counter flush and the
//    final stats merge. The parallel graph explorer (parallel.cpp) and the
//    tree engines below both run on it.
//  * tree::Engine<Policy>: the tree-shaped DPOR harness. It owns the
//    arena-pooled nodes (spine, incoming step, config, steps, sleep set,
//    executed prefix, node mutex), step materialisation into a child
//    (apply, on_transition view, hb row, seen probe, on_state/on_final,
//    max_states truncation), sleep-set inheritance, the free-scheduling
//    thread choice, root preparation and the result. A policy supplies
//    its per-node scheduling state, its work item and its expand step at
//    compile time — no virtual call per transition: tree::SourceSets
//    (dpor.cpp) and tree::Optimal (optimal.cpp). explore_tree (dpor.hpp)
//    picks one from ExploreOptions::por.
//
// observe_transition, the ConfigStep view on_transition receives, is
// shared by all three explorers (spine, parallel cursors, tree engines).
//
// Lock order: a node's `mu` before `pool_mu`. `pool_mu` is a leaf lock,
// held only for one free-list push or pop. A node's last release scrubs it
// and resets its spine link *before* taking `pool_mu`: the cascade up the
// spine takes the pool lock once per ancestor, never nested.
//
// Heartbeat memory ordering: per-worker counters are owner-written. The
// fields a heartbeat samples (WorkerStats processed/enqueued/steals/merged
// and ExploreStats finals/sleep_blocked/redundant_transitions/max_depth)
// are written with bump/raise_to — a relaxed atomic load + store, which
// compiles to the plain increment — and read with sample, a relaxed load.
// A snapshot is therefore race-free but not a consistent cut: each field
// is some value it held during the beat. Nothing else reads the slabs
// before the workers have joined.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/independence.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"
#include "util/work_deque.hpp"

namespace rc11::mc {

// --- Heartbeat-sampled counters ---------------------------------------------

/// Owner-side increment of a counter heartbeats sample from other threads.
/// Only the owner writes, so a relaxed load + store (not a locked
/// read-modify-write) suffices and costs what a plain increment does.
inline void bump(std::size_t& counter, std::size_t by = 1) {
  std::atomic_ref<std::size_t> c(counter);
  c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
}

/// Owner-side running maximum of a heartbeat-sampled counter.
inline void raise_to(std::size_t& counter, std::size_t value) {
  std::atomic_ref<std::size_t> c(counter);
  if (value > c.load(std::memory_order_relaxed)) {
    c.store(value, std::memory_order_relaxed);
  }
}

/// Heartbeat-side read of a counter written with bump / raise_to.
inline std::size_t sample(std::size_t& counter) {
  return std::atomic_ref<std::size_t>(counter).load(std::memory_order_relaxed);
}

template <class T>
bool contains(const std::vector<T>& v, const T& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Shows on_transition the step `s` that took `pre` to `post`, appending
/// `event` (kNoEvent when silent), as the ConfigStep the Visitor contract
/// promises. `post` is moved into the view and back, so the callback costs
/// no copy beyond the caller's `pre`. Returns the callback's verdict.
inline bool observe_transition(
    const decltype(Visitor::on_transition)& on_transition,
    const interp::Config& pre, interp::Config& post, const interp::Step& s,
    c11::EventId event) {
  interp::ConfigStep view;
  view.thread = s.thread;
  view.silent = s.silent;
  if (!s.silent) {
    view.event = event;
    view.observed = s.observed;
    view.action = post.exec.event(event).action;
  }
  view.loop_unfold = s.loop_unfold;
  view.next = std::move(post);
  const bool keep = on_transition(pre, view);
  post = std::move(view.next);
  return keep;
}

// --- The work-stealing core -------------------------------------------------

/// Per-worker reporting counters, merged into the result with
/// ExploreStats::operator+= when the run finishes; padded so neighbouring
/// workers don't false-share.
struct alignas(64) WorkerTotals {
  ExploreStats stats;
};

template <class Item>
struct WorkerCore {
  WorkerCore(const ExploreOptions& opts, std::size_t workers)
      : options(opts),
        deques(workers),
        worker_stats(workers),
        totals(workers),
        seen(workers) {}

  ExploreOptions options;
  util::WorkDeques<Item> deques;
  std::vector<WorkerStats> worker_stats;
  /// Pure-reporting counters, one slab per worker, written by the owner
  /// only — no hot-path read-modify-writes. `states`, `transitions` and
  /// `truncated` stay atomic: max_states control flow and heartbeat rates
  /// need coherent cross-worker reads.
  std::vector<WorkerTotals> totals;
  AdaptiveSeenSet seen;

  /// Items pushed but not yet fully expanded; 0 <=> exploration finished.
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> states{0};
  std::atomic<std::size_t> transitions{0};
  std::atomic<bool> truncated{false};

  void push(std::size_t me, Item item) {
    pending.fetch_add(1, std::memory_order_acq_rel);
    deques.push_local(me, std::move(item));
  }

  /// Runs `work(me)` once per worker: inline on the calling thread for a
  /// single worker, on a util::ThreadPool otherwise.
  template <class Work>
  void run_workers(const Work& work) {
    const std::size_t n = deques.worker_count();
    if (n == 1) return work(std::size_t{0});
    util::ThreadPool pool(n);
    for (std::size_t k = 0; k < n; ++k) {
      pool.submit([&work, k] { work(k); });
    }
    pool.wait_idle();
  }

  /// Worker `me`'s loop: pop locally (LIFO), else steal, else back off
  /// until every pushed item has been expanded; `expand(item)` handles one
  /// item. Step-enumeration counters are thread_local: the delta since
  /// entry is flushed to worker `me` on exit, so the per-worker split
  /// survives steal handoffs.
  template <class Expand>
  void worker_loop(std::size_t me, const Expand& expand) {
    obs::WorkerScope obs_scope(options.telemetry,
                               static_cast<std::uint32_t>(me));
    const interp::StepEnumCounters enum_base = interp::step_enum_counters();
    constexpr int kYieldRounds = 64;
    int idle_rounds = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::optional<Item> item = deques.pop_local(me);
      if (!item && deques.worker_count() > 1) {
        item = deques.steal(me);
        if (item) {
          bump(worker_stats[me].steals);
          obs::instant_event("steal");
        }
      }
      if (!item) {
        // Sequential: nothing can appear while we hold the only deque.
        if (pending.load(std::memory_order_acquire) == 0 ||
            deques.worker_count() == 1) {
          break;
        }
        // Back off while other workers drain a narrow frontier: a few
        // yields, then short sleeps, so idle workers do not burn cores.
        if (++idle_rounds <= kYieldRounds) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        continue;
      }
      idle_rounds = 0;
      bump(worker_stats[me].processed);
      expand(*item);
      pending.fetch_sub(1, std::memory_order_acq_rel);
      if (options.telemetry != nullptr && options.telemetry->heartbeat_due()) {
        emit_heartbeat();
      }
    }
    flush_enum(me, enum_base);
  }

  /// Adds this thread's step-enumeration counter movement since `base` to
  /// worker `me`'s WorkerStats and reporting slab.
  void flush_enum(std::size_t me, const interp::StepEnumCounters& base) {
    const interp::StepEnumCounters& ec = interp::step_enum_counters();
    worker_stats[me].enum_reused += ec.reused - base.reused;
    worker_stats[me].enum_recomputed += ec.recomputed - base.recomputed;
    totals[me].stats.enum_threads_reused += ec.reused - base.reused;
    totals[me].stats.enum_threads_recomputed += ec.recomputed - base.recomputed;
  }

  /// Progress heartbeat from whichever worker won the beat (see the
  /// memory-ordering contract at the top of this file).
  void emit_heartbeat() {
    obs::ProgressSnapshot snap;
    snap.states = states.load(std::memory_order_relaxed);
    snap.transitions = transitions.load(std::memory_order_relaxed);
    snap.frontier = pending.load(std::memory_order_relaxed);
    snap.seen_bytes = seen.bytes();
    for (WorkerTotals& w : totals) {
      snap.finals += sample(w.stats.finals);
      snap.sleep_blocked += sample(w.stats.sleep_blocked);
      snap.redundant += sample(w.stats.redundant_transitions);
      snap.max_depth = std::max(snap.max_depth, sample(w.stats.max_depth));
    }
    snap.workers.reserve(worker_stats.size());
    for (WorkerStats& ws : worker_stats) {
      snap.workers.push_back({sample(ws.processed), sample(ws.enqueued),
                              sample(ws.steals), sample(ws.merged)});
    }
    options.telemetry->emit(std::move(snap));
  }

  /// The run's stats once the workers have joined: the per-worker slabs
  /// merged by ExploreStats::operator+=, then the shared pieces.
  [[nodiscard]] ExploreStats merged_stats() const {
    ExploreStats stats;
    for (const WorkerTotals& w : totals) stats += w.stats;
    stats.states = states.load();
    stats.transitions = transitions.load();
    stats.truncated = truncated.load();
    stats.peak_seen_bytes = seen.bytes();
    return stats;
  }
};

// --- The tree-engine harness -------------------------------------------------

namespace tree {

template <class P>
struct Engine;

/// The policy-independent part of a tree node. The spine (parent chain)
/// is the trace E the node was reached by. Everything but `executed` is
/// written once by the creating worker before the node is published and
/// immutable afterwards; `executed` and the policy's scheduling state are
/// guarded by `mu`, because race reversals found in stolen subtrees
/// schedule work at ancestors owned by other workers.
struct NodeData {
  std::uint32_t depth = 0;
  StepSig in_sig{};        ///< signature of the incoming step (depth > 0)
  interp::Step in_step{};  ///< incoming step (depth > 0); trace entries are
                           ///< rendered lazily (make_entry allocates)
  interp::Config config;
  /// All successors, by thread ascending, as signature-only steps: a
  /// child's configuration is made by cloning this node's config — which
  /// carries its warm incremental cache — and applying the step.
  std::vector<interp::Step> steps;
  std::vector<StepSig> sigs;  ///< sig per step
  /// hb_row[i] = 1 iff spine event e_i happens-before this node's incoming
  /// event e_depth (mc/independence.hpp build_hb_row): race detection
  /// builds one new row per transition instead of the whole closure.
  std::vector<char> hb_row;
  /// The spine passed through an already-seen configuration: transitions
  /// from here re-explore a shared suffix (stats.redundant_transitions).
  bool redundant = false;
  /// Transition signatures asleep on arrival: their executions from here
  /// are covered by an earlier sibling subtree.
  SleepSet sleep;

  std::mutex mu;
  /// Signatures of the steps already executed from this node, in
  /// execution order — the sleep-set order: a later-executed step's
  /// subtree may put an earlier-executed sibling to sleep, never the
  /// reverse.
  std::vector<StepSig> executed;
};

/// One arena-allocated, intrusively ref-counted node (util/arena.hpp):
/// it stays alive exactly while some in-flight descendant or work item
/// holds it, and is recycled through its engine's pool with its buffers
/// intact, so the per-transition Config clone becomes a capacity-reusing
/// copy-assignment once the pool is warm.
template <class P>
struct Node : NodeData, P::NodeState {
  std::atomic<std::uint32_t> refs{0};  ///< intrusive PoolRef count
  Engine<P>* eng = nullptr;            ///< owning pool, for dispose
  util::PoolRef<Node> parent;
};

template <class P>
using NodePtr = util::PoolRef<Node<P>>;

/// The node pool. A base of Engine declared before the work deques, so it
/// outlives them: items still queued at an early stop release their nodes
/// into the pool during ~Engine.
template <class P>
struct NodePool {
  std::mutex pool_mu;
  util::ArenaPool<Node<P>> pool;
};

template <class P>
struct Engine : NodePool<P>, WorkerCore<typename P::Item> {
  Engine(const ExploreOptions& opts, const Visitor& vis, std::size_t workers)
      : WorkerCore<typename P::Item>(opts, workers), visitor(vis) {}

  const Visitor& visitor;

  std::mutex abort_mutex;
  bool aborted = false;
  Trace abort_trace;

  void record_abort(Trace trace) {
    {
      std::lock_guard lock(abort_mutex);
      if (!aborted) {
        aborted = true;
        abort_trace = std::move(trace);
      }
    }
    this->stop.store(true, std::memory_order_release);
  }
};

/// Takes a node from the pool (or arena-creates one) with an initial
/// reference; the last PoolRef to die routes it through pooled_dispose.
template <class P>
NodePtr<P> acquire_node(Engine<P>& eng) {
  Node<P>* p;
  {
    std::lock_guard lock(eng.pool_mu);
    p = eng.pool.acquire();
  }
  p->eng = &eng;
  p->refs.store(1, std::memory_order_relaxed);
  return NodePtr<P>::adopt(p);
}

/// PoolRef release hook (found by ADL): scrubs the node — policy state
/// first — and returns it to its engine's pool, buffers intact. The spine
/// release runs before taking the pool lock: it may cascade disposal up
/// the spine, and each ancestor takes the lock for its own push.
template <class P>
void pooled_dispose(Node<P>* p) {
  Engine<P>& eng = *p->eng;
  p->scrub();
  p->parent.reset();
  p->depth = 0;
  p->in_sig = {};
  p->in_step = {};
  p->steps.clear();
  p->sigs.clear();
  p->hb_row.clear();
  p->redundant = false;
  p->sleep.clear();
  p->executed.clear();
  std::lock_guard lock(eng.pool_mu);
  eng.pool.release(p);
}

/// Fills steps/sigs of a freshly built node: signatures only (reserve +
/// reuse, no Config copies).
inline void prepare_node(NodeData& n, const ExploreOptions& options) {
  obs::ScopedPhase enum_phase(obs::Phase::kEnumerate);
  interp::enumerate_steps(n.config, options.step, n.steps);
  sigs_of(n.steps, n.config.exec, n.sigs, n.config.has_sc_fence);
}

/// The trace from the root to `n` (the path the spine encodes). Entries
/// are rendered here, on the cold path — the hot path only records steps.
template <class N>
Trace spine_trace(const N* n) {
  Trace t;
  for (const N* p = n; p->depth > 0; p = p->parent.get()) {
    t.entries.push_back(make_entry(p->in_step));
  }
  std::reverse(t.entries.begin(), t.entries.end());
  return t;
}

/// spine[k] = the ancestor of `n` at depth k, for k = 0..n.depth: its
/// in_sig is trace event e_k and its hb_row says which e_i happen before.
template <class N>
void collect_spine(N& n, std::vector<N*>& spine) {
  spine.resize(n.depth + 1);
  N* p = &n;
  for (std::size_t k = n.depth;; --k) {
    spine[k] = p;
    if (k == 0) break;
    p = p->parent.get();
  }
}

/// Builds the happens-before row of the step `t_sig` about to be taken
/// from `n` (the child's hb_row), leaving n's spine in `spine` when n is
/// not the root.
template <class N>
void build_incoming_row(N& n, const StepSig& t_sig, std::vector<N*>& spine,
                        std::vector<char>& row_out) {
  row_out.clear();
  if (n.depth == 0) return;
  collect_spine(n, spine);
  build_hb_row(
      n.depth, t_sig,
      [&](std::size_t k) -> const StepSig& { return spine[k]->in_sig; },
      row_out);
}

/// True iff thread q has at least one transition at n not slept on.
inline bool has_awake_step(const NodeData& n, c11::ThreadId q) {
  for (const StepSig& sig : n.sigs) {
    if (sig.thread == q && !sleep_contains(n.sleep, sig)) return true;
  }
  return false;
}

/// Free-scheduling thread choice: a thread whose every step is silent if
/// one exists (silent steps are independent with everything, so the node
/// never receives a race reversal — the branch-deferring "invisible
/// transition first" heuristic; with tau compression these are only loop
/// unfoldings), else the lowest-id thread with an awake transition.
/// Returns 0 when nothing is schedulable (a leaf, or a node whose every
/// transition sleeps).
inline c11::ThreadId pick_first(const NodeData& n) {
  // One pass over the signatures (sorted by thread ascending), tracking
  // per thread-group whether some step is awake and every step is silent.
  c11::ThreadId best = 0;
  c11::ThreadId cur = 0;
  bool cur_awake = false;
  bool cur_all_silent = true;
  const auto flush = [&]() -> c11::ThreadId {
    if (cur != 0 && cur_awake) {
      if (cur_all_silent) return cur;
      if (best == 0) best = cur;
    }
    return 0;
  };
  for (const StepSig& sig : n.sigs) {
    if (sig.thread != cur) {
      if (const c11::ThreadId r = flush(); r != 0) return r;
      cur = sig.thread;
      cur_awake = false;
      cur_all_silent = true;
    }
    if (!sig.silent) cur_all_silent = false;
    if (!cur_awake && !sleep_contains(n.sleep, sig)) cur_awake = true;
  }
  if (const c11::ThreadId r = flush(); r != 0) return r;
  return best;
}

/// Executes step `i` of `self` into the pre-acquired `child`: the part of
/// a transition every policy shares. Counts the transition, materializes
/// the child configuration (copy-assign the parent's config into the
/// recycled node and apply in place — the only Config copy a transition
/// costs), shows it to on_transition, has the policy build the
/// child's hb row (P::incoming_row), links the child into the spine,
/// probes the seen set (unique-state accounting, max_states, on_state /
/// on_final) and enumerates the child's steps. Returns false when the
/// search must stop.
template <class P>
bool materialize_child(Engine<P>& eng, std::size_t me, const NodePtr<P>& self,
                       std::size_t i, Node<P>& child) {
  Node<P>& n = *self;
  const StepSig& sig = n.sigs[i];
  ExploreStats& my = eng.totals[me].stats;
  eng.transitions.fetch_add(1, std::memory_order_relaxed);
  if (n.redundant) bump(my.redundant_transitions);

  const interp::Step& in_step = n.steps[i];
  c11::EventId event = c11::kNoEvent;
  {
    obs::ScopedPhase apply_phase(obs::Phase::kApply);
    child.config = n.config;
    event = interp::apply_step(child.config, in_step, eng.options.step);
  }

  if (eng.visitor.on_transition &&
      !observe_transition(eng.visitor.on_transition, n.config, child.config,
                          in_step, event)) {
    Trace t = spine_trace(&n);
    t.entries.push_back(make_entry(in_step));
    eng.record_abort(std::move(t));
    return false;
  }

  P::incoming_row(eng, me, self, sig, child.hb_row);

  child.parent = self;
  child.depth = n.depth + 1;
  child.in_sig = sig;
  child.in_step = in_step;
  raise_to(my.max_depth, child.depth + 1);

  InsertResult ins;
  {
    obs::ScopedPhase probe_phase(obs::Phase::kSeenProbe);
    ins = eng.seen.insert(child.config.fingerprint());
  }
  child.redundant = n.redundant || !ins.inserted;
  if (child.config.terminated()) ++my.complete_traces;
  if (ins.inserted) {
    const std::size_t states =
        eng.states.fetch_add(1, std::memory_order_relaxed) + 1;
    if (states >= eng.options.max_states) {
      eng.truncated.store(true);
      eng.stop.store(true);
      return false;
    }
    if (eng.visitor.on_state && !eng.visitor.on_state(child.config)) {
      eng.record_abort(spine_trace(&child));
      return false;
    }
    if (child.config.terminated()) {
      bump(my.finals);
      if (eng.visitor.on_final && !eng.visitor.on_final(child.config)) {
        eng.record_abort(spine_trace(&child));
        return false;
      }
    }
  } else {
    ++my.merged;
    bump(eng.worker_stats[me].merged);
  }

  prepare_node(child, eng.options);
  return true;
}

/// Godefroid's sleep rule at transition granularity: a transition asleep
/// at `parent`, or executed there before the child's step (`prefix`, the
/// sleep-order snapshot), stays asleep in `child` iff it commutes with
/// the child's incoming step. Adds the child's asleep transitions — what
/// the sleep filter will refuse to run there — to stats.por_pruned and
/// returns their count.
inline std::size_t inherit_sleep(const NodeData& parent, NodeData& child,
                                 const SleepSet& prefix, ExploreStats& my) {
  const StepSig& sig = child.in_sig;
  child.sleep.reserve(parent.sleep.size() + prefix.size());
  for (const StepSig& s : parent.sleep) {
    if (independent(s, sig)) child.sleep.push_back(s);
  }
  for (const StepSig& s : prefix) {
    if (independent(s, sig)) child.sleep.push_back(s);
  }
  std::sort(child.sleep.begin(), child.sleep.end());
  child.sleep.erase(std::unique(child.sleep.begin(), child.sleep.end()),
                    child.sleep.end());
  std::size_t pruned = 0;
  for (const StepSig& s : child.sigs) {
    if (sleep_contains(child.sleep, s)) ++pruned;
  }
  my.por_pruned += pruned;
  return pruned;
}

/// Runs policy P's tree engine from `start` (the body of explore_tree).
template <class P>
ExploreResult run(const interp::Config& start, const ExploreOptions& options,
                  const Visitor& visitor, std::size_t workers,
                  std::vector<WorkerStats>* worker_stats) {
  Engine<P> eng(options, visitor, workers == 0 ? 1 : workers);
  // Scheduling points are visible (memory) steps only: deterministic
  // silent/register steps never branch the search and are fused into the
  // preceding transition (loop unfoldings stay visible — they are bounded
  // and must branch). This is what makes the reduction bite on
  // register-heavy litmus programs. Returned traces therefore replay under
  // tau_compress = true.
  eng.options.step.tau_compress = true;

  obs::PhaseProfile profile_base;
  if (options.telemetry != nullptr) profile_base = options.telemetry->profile();

  const auto finish = [&](bool root_aborted = false) {
    ExploreResult res;
    res.stats = eng.merged_stats();
    {
      std::lock_guard lock(eng.abort_mutex);
      res.aborted = eng.aborted || root_aborted;
      res.abort_trace = std::move(eng.abort_trace);
    }
    if (worker_stats != nullptr) *worker_stats = eng.worker_stats;
    if (options.telemetry != nullptr) {
      res.phases = options.telemetry->profile() - profile_base;
    }
    return res;
  };

  NodePtr<P> root = acquire_node(eng);
  root->config = start;
  eng.totals[0].stats.max_depth = 1;
  {
    // Root preparation runs on the calling thread, before any worker
    // snapshots its own counter base (and under its own telemetry scope,
    // released before the workers attach theirs).
    obs::WorkerScope obs_scope(options.telemetry, 0);
    (void)eng.seen.insert(root->config.fingerprint());
    eng.states.store(1);
    if (visitor.on_state && !visitor.on_state(root->config)) {
      return finish(/*root_aborted=*/true);
    }
    if (root->config.terminated()) {
      eng.totals[0].stats.finals = 1;
      eng.totals[0].stats.complete_traces = 1;
      if (visitor.on_final && !visitor.on_final(root->config)) {
        return finish(/*root_aborted=*/true);
      }
    }
    const interp::StepEnumCounters enum_base = interp::step_enum_counters();
    prepare_node(*root, eng.options);
    eng.flush_enum(0, enum_base);
  }
  if (const c11::ThreadId first = pick_first(*root); first != 0) {
    P::start(eng, root, first);
  }

  eng.run_workers([&eng](std::size_t me) {
    eng.worker_loop(me, [&eng, me](typename P::Item& item) {
      P::expand(eng, me, item);
    });
  });
  return finish();
}

struct SourceSets;  // dpor.cpp
struct Optimal;     // optimal.cpp

extern template ExploreResult run<SourceSets>(const interp::Config&,
                                              const ExploreOptions&,
                                              const Visitor&, std::size_t,
                                              std::vector<WorkerStats>*);
extern template ExploreResult run<Optimal>(const interp::Config&,
                                           const ExploreOptions&,
                                           const Visitor&, std::size_t,
                                           std::vector<WorkerStats>*);

}  // namespace tree
}  // namespace rc11::mc
