#include "mc/optimal.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "lang/command.hpp"
#include "mc/harness.hpp"
#include "mc/wakeup.hpp"

namespace rc11::mc::tree {

/// The optimal policy: on top of the harness's node state, a node owns its
/// *wakeup tree* — the ordered tree of continuations race reversals have
/// inserted at it. `ready`, `pending_grafts`, `claimed` and `wut` are
/// guarded by the node mutex and shared with stealing workers; `doomed` is
/// set before the node is published. `gen` backs the claimant registry's
/// weak handles: scrub bumps it, so a PoolWeakRef to a recycled node
/// expires instead of resurrecting whoever reused the slot.
struct Optimal {
  struct NodeState {
    std::atomic<std::uint64_t> gen{0};  ///< recycling generation
    /// Set once the node is fully initialized and scheduled by its
    /// creating execute_step. A node becomes visible to other workers
    /// through the parent's claimant registry *before* that point, so a
    /// graft arriving early is stashed in pending_grafts and drained by
    /// the owner when it publishes readiness — inserting directly would
    /// race with the owner's lock-free initialization of config/sleep/wut.
    bool ready = false;
    std::vector<WakeupSequence> pending_grafts;
    /// The exploration child each executed step created, parallel to
    /// `executed`. Weak: registering a child must not extend its lifetime
    /// (the engine frees subtrees as their items drain). Used to *graft* a
    /// branch's prescribed continuation into the child that claimed its
    /// first step — demand re-targeting: free expansion, sibling-instance
    /// branching and prescribed branches race on the shared node, so a
    /// branch can find its first step already executed.
    std::vector<util::PoolWeakRef<Node<Optimal>>> claimed;
    /// Some thread is permanently stuck here (see has_doomed_thread):
    /// no final state exists below. Set once at creation; a doomed node
    /// still executes its prescribed wakeup branches (their dead prefixes
    /// carry race-reversal demands) but never opens new sibling classes.
    bool doomed = false;
    /// Wakeup tree: pending branches to execute plus taken markers for the
    /// branches already handed to children (subsumption targets).
    WakeupTree wut;

    /// The generation bump comes first (release): once a weak claimant
    /// handle can observe the node on the free list, it must already see
    /// the new generation and refuse to lock.
    void scrub() {
      gen.fetch_add(1, std::memory_order_release);
      ready = false;
      pending_grafts.clear();
      claimed.clear();
      doomed = false;
      wut.clear();
    }
  };

  struct Item {
    NodePtr<Optimal> node;
    /// Pending wakeup branch to execute — a stable index into node->wut;
    /// kNil for a free-scheduling item.
    WakeupTree::NodeId branch = WakeupTree::kNil;
    c11::ThreadId thread = 0;  ///< free items: the thread to expand
  };

  static void start(Engine<Optimal>& eng, const NodePtr<Optimal>& root,
                    c11::ThreadId first);
  static void incoming_row(Engine<Optimal>& eng, std::size_t me,
                           const NodePtr<Optimal>& self, const StepSig& t_sig,
                           std::vector<char>& row_out);
  static void expand(Engine<Optimal>& eng, std::size_t me, Item& item);
};

namespace {

using Eng = Engine<Optimal>;
using ONode = Node<Optimal>;
using ONodePtr = NodePtr<Optimal>;
using OItem = Optimal::Item;

/// insert_sequence with target->mu already held and target ready.
bool insert_sequence_locked(Eng& eng, std::size_t me, const ONodePtr& target,
                            const WakeupSequence& v) {
  obs::ScopedPhase insert_phase(obs::Phase::kWakeupInsert);
  thread_local std::vector<std::size_t> wi;
  weak_initials(v, wi);
  for (const std::size_t j : wi) {
    // Signatures are canonical, so sleep membership is plain equality —
    // a sleeping weak initial means the subtree that put it to sleep
    // already covers [target.v].
    if (sleep_contains(target->sleep, v[j].sig)) return false;
  }

  WakeupTree::NodeId branch = WakeupTree::kNil;
  const WakeupTree::Insert ins = target->wut.insert(v, &branch);
  if (ins == WakeupTree::Insert::kSubsumed) return false;
  if (ins == WakeupTree::Insert::kNewBranch) {
    eng.push(me,
             OItem{target, branch, target->wut.node(branch).step.sig.thread});
  }
  return true;
}

/// Inserts wakeup sequence v into `target`'s tree: skipped when a weak
/// initial of v sleeps there (the subtree that put it to sleep already
/// covers [target.v]) or when an existing branch subsumes v; a fresh
/// toplevel branch is scheduled as a work item. A target still being
/// initialized by its creating worker (grafts can reach a claimant child
/// before its execute_step finishes) has the sequence stashed instead;
/// the owner drains the stash when it publishes readiness. Returns true
/// iff something was inserted.
bool insert_sequence(Eng& eng, std::size_t me, const ONodePtr& target,
                     const WakeupSequence& v) {
  std::lock_guard lock(target->mu);
  if (!target->ready) {
    target->pending_grafts.push_back(v);
    return false;
  }
  return insert_sequence_locked(eng, me, target, v);
}

/// Race reversal at a *maximal* execution, per the optimal-DPOR
/// algorithm: `leaf` has no schedulable continuation, its spine is the
/// full trace E = e_1..e_d, and every reversible race (e_i, e_k) on it is
/// reversed by inserting v = notdep(e_i, E).e_k into the wakeup tree of
/// the node at pre(E, e_i). Detecting at maximal executions (rather than
/// eagerly when e_k first runs) is what makes the inserted sequences pin
/// the whole non-dependent suffix, so the execution that follows one
/// never wanders into territory a sibling subtree covers — the
/// sleep-filter can only kill what free exploration chose, and free
/// exploration only happens where the tree has run dry. The same race is
/// re-detected at every maximal execution below it; subsumption against
/// the tree (taken branches included) eats the duplicates.
void leaf_race_reversals(Eng& eng, std::size_t me, const ONodePtr& leaf) {
  obs::ScopedPhase race_phase(obs::Phase::kRaceDetect);
  ONode& n = *leaf;
  const std::size_t d = n.depth;
  if (d < 2) return;

  thread_local std::vector<ONode*> nodes;
  collect_spine(n, nodes);
  const auto sig_at = [&](std::size_t k) -> const StepSig& {
    return nodes[k]->in_sig;
  };
  // hb over the trace, from the rows cached when each step executed.
  const auto hb = [&](std::size_t i, std::size_t k) {
    return nodes[k]->hb_row[i] != 0;
  };
  // Canonical ids of the leaf frame, for naming speculative candidate
  // writes. The base steps reuse their cached in_sig — canonical ids are
  // frame-invariant, so a signature built at the source frame is already
  // the right name in the reversed one. Computed lazily: only races whose
  // racing step observed the raced event itself need candidates.
  thread_local std::vector<interp::CanonicalEventId> cids;
  bool cids_ready = false;

  for (std::size_t k = 2; k <= d; ++k) {
    const StepSig& t_sig = sig_at(k);
    for (std::size_t i = 1; i < k; ++i) {
      const StepSig& e_sig = sig_at(i);
      if (e_sig.thread == t_sig.thread || independent(e_sig, t_sig)) continue;
      // Reversible race: no intermediate j with e_i ->hb e_j ->hb e_k.
      bool direct = true;
      for (std::size_t j = i + 1; j < k && direct; ++j) {
        if (hb(i, j) && hb(j, k)) direct = false;
      }
      if (!direct) continue;

      // v = notdep(e_i, E).e_k: the whole-trace suffix of steps not
      // happening-after e_i (everything happening-after e_k is
      // automatically excluded: e_i ->hb e_k), then e_k itself. The base
      // steps' observed writes are all present in the reversed frame
      // (an absent one would be an intermediate hb link, contradicting
      // directness), so their cached signatures replay as-is.
      WakeupSequence v;
      thread_local std::vector<c11::EventId> v_events;
      v_events.clear();
      for (std::size_t l = i + 1; l <= d; ++l) {
        if (l == k || hb(i, l)) continue;
        v.push_back(WakeupStep{nodes[l]->in_sig,
                               nodes[l]->in_step.loop_unfold, false});
        if (!nodes[l]->in_sig.silent) {
          v_events.push_back(
              static_cast<c11::EventId>(nodes[l]->config.exec.size() - 1));
        }
      }

      const auto do_insert = [&](WakeupSequence seq) {
        // Parsimonious mode prunes to the dependent core, with every
        // signature that can ever be *asleep below the insertion target*
        // as an extra demand: the target's own sleep set plus all its
        // enabled instances (executed siblings enter a branch child's
        // sleep through its prefix snapshot, and every sibling ever
        // executed there is one of the target's enabled instances — so
        // this covers siblings that execute *after* this insertion too;
        // the prescribed part of a branch is guided, never expands
        // siblings, and therefore adds no sleepers of its own). Both
        // vectors are immutable once the target is prepared, so no lock.
        if (eng.options.por == PorMode::kOptimalParsimonious) {
          const ONode* tgt = nodes[i - 1];
          thread_local SleepSet demands;
          demands = tgt->sleep;
          demands.insert(demands.end(), tgt->sigs.begin(), tgt->sigs.end());
          std::sort(demands.begin(), demands.end());
          prune_to_dependent_core(seq, demands);
        }
        if (insert_sequence(eng, me, nodes[i]->parent, seq)) {
          ++eng.totals[me].stats.backtracks;
        }
      };

      const interp::Step& t_step = nodes[k]->in_step;
      const c11::EventId raced_event = static_cast<c11::EventId>(
          nodes[i]->config.exec.size() - 1);  // e_i is non-silent (dependent)
      if (t_step.observed == c11::kNoEvent || t_step.observed != raced_event) {
        v.push_back(WakeupStep{t_sig, t_step.loop_unfold, false});
        do_insert(std::move(v));
        continue;
      }

      // The racing step observed the raced event itself, so its exact
      // signature does not exist in the reversed frame. Enumerate one
      // *speculative* candidate per same-variable write present there:
      // the writes of the prefix E_{<i} (initialising writes included)
      // plus the writes v itself appends. For reads and RMWs the value
      // read is re-targeted to the candidate write (an RMW's written
      // value is computed before the read, so it stays); for writes the
      // candidate is the mo insertion point. The candidate set is a
      // superset of the instances actually enabled at the branch end —
      // observability only restricts it — so unmatched candidates drop
      // silently at execution time, while every instance the retired
      // thread-wildcard would have run is covered by some candidate.
      const c11::Execution& exec = n.config.exec;
      if (!cids_ready) {
        interp::canonical_event_ids(exec, cids);
        cids_ready = true;
      }
      // Own-write coherence filter: the racing thread's accesses always
      // come sb-after its own writes present at the branch end (the
      // target prefix plus v), and coherence forbids reading — or, for a
      // write, being mo-inserted — behind an own write (fr/mo against sb
      // u hb). A candidate mo-before one of those writes therefore never
      // matches an instance anywhere below the target: inserting it only
      // grows branches whose execution is guaranteed to die, so skip it
      // here. mo between two existing events never changes (insertion is
      // append-only), so the leaf execution's mo answers for every frame.
      thread_local std::vector<c11::EventId> own_writes;
      own_writes.clear();
      const auto note_own_write = [&](c11::EventId ev) {
        const c11::Event& oe = exec.event(ev);
        if (oe.tid == t_sig.thread && oe.action.is_write() &&
            oe.action.var == t_sig.var) {
          own_writes.push_back(ev);
        }
      };
      const auto add_candidate = [&](c11::EventId w) {
        const c11::Action& wa = exec.event(w).action;
        if (!wa.is_write() || wa.var != t_sig.var) return;
        for (const c11::EventId ow : own_writes) {
          if (exec.mo().contains(w, ow)) return;
        }
        StepSig cs = t_sig;
        cs.observed = cids[w];
        if (is_read_kind(cs.kind) || is_update_kind(cs.kind)) {
          cs.rval = wa.wrval();
        }
        WakeupSequence seq = v;
        seq.push_back(WakeupStep{cs, t_step.loop_unfold, true});
        do_insert(std::move(seq));
      };
      const c11::EventId prefix_end =
          static_cast<c11::EventId>(nodes[i - 1]->config.exec.size());
      for (c11::EventId w = 0; w < prefix_end; ++w) note_own_write(w);
      for (const c11::EventId w : v_events) note_own_write(w);
      for (c11::EventId w = 0; w < prefix_end; ++w) add_candidate(w);
      for (const c11::EventId w : v_events) add_candidate(w);
    }
  }
}

// --- Doomed-thread detection -------------------------------------------------
//
// A sleeping signature leaves a sleep set only when a dependent step
// executes. With exploration keyed on reads-from choices, the classical
// never-blocks argument for wakeup trees has a hole: a race reversal can
// demand a class in which a previously executed sibling's *other
// instance* (same command, different observed write) sleeps with no
// dependent step anywhere in the class — on the source trace the sleeping
// thread's continuation was excluded by happens-before, but the demanded
// reads-from change removes exactly the chain that excluded it. Below
// such a node every execution keeps the thread enabled-and-asleep
// forever: no final state exists there, every path eventually dies in
// the sleep filter, and the whole subtree re-explores classes the
// sleeping instances' sibling subtrees already cover. The helpers below
// detect this *doom* as soon as it is syntactically certain, so the
// engine stops scheduling the subtree instead of running it into the
// ground.

/// True iff evaluating `e` may read shared variable `var` (conservative:
/// every syntactically present operand counts, reachable or not).
bool expr_may_read(const lang::ExprPtr& e, c11::VarId var) {
  if (!e) return false;
  if (e->kind == lang::ExprKind::kVar && e->var == var) return true;
  return expr_may_read(e->lhs, var) || expr_may_read(e->rhs, var);
}

/// True iff some execution of command `c` may perform an access dependent
/// with an access of `var`: when the stuck access is a read
/// (`stuck_is_read`), only writes and updates conflict; otherwise every
/// same-variable access does (mc/independence.hpp rules). Conservative:
/// both if-branches and loop bodies count as reachable regardless of
/// guard values.
bool com_may_conflict(const lang::ComPtr& c, c11::VarId var,
                      bool stuck_is_read) {
  if (!c) return false;
  switch (c->kind) {
    case lang::ComKind::kSkip:
      return false;
    case lang::ComKind::kAssign:
    case lang::ComKind::kSwap:
      if (c->var == var) return true;
      return !stuck_is_read && expr_may_read(c->expr, var);
    case lang::ComKind::kRegAssign:
      return !stuck_is_read && expr_may_read(c->expr, var);
    case lang::ComKind::kSeq:
      return com_may_conflict(c->c1, var, stuck_is_read) ||
             com_may_conflict(c->c2, var, stuck_is_read);
    case lang::ComKind::kIf:
      return (!stuck_is_read && expr_may_read(c->expr, var)) ||
             com_may_conflict(c->c1, var, stuck_is_read) ||
             com_may_conflict(c->c2, var, stuck_is_read);
    case lang::ComKind::kWhile:
      return (!stuck_is_read && expr_may_read(c->expr, var)) ||
             com_may_conflict(c->c1, var, stuck_is_read);
    case lang::ComKind::kLabel:
      return com_may_conflict(c->c1, var, stuck_is_read);
  }
  return true;  // future command kinds: assume conflicting
}

/// One permanently-stuck-thread candidate: all instances of one thread's
/// command share variable and kind, so one (var, is-read) pair describes
/// them.
struct Stuck {
  c11::ThreadId thread = 0;
  c11::VarId var = 0;
  bool is_read = false;
  bool silent = false;
};

/// Fixpoint over the stuck/active partition: a stuck thread whose
/// variable some active thread may still conflict on becomes active
/// itself (a wakeup makes its whole remaining program reachable).
/// Returns true iff a thread is left stuck at the fixpoint — stuck
/// forever. A stuck *silent* step can never leave: silent steps are
/// independent of everything, so nothing ever removes one from a sleep
/// set. `config` supplies the active threads' remaining programs.
bool stuck_forever(const interp::Config& config, std::vector<Stuck>& stuck,
                   std::vector<c11::ThreadId>& active) {
  if (stuck.empty()) return false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t j = 0; j < stuck.size(); ++j) {
      const Stuck& s = stuck[j];
      if (s.silent) continue;
      bool wakeable = false;
      for (const c11::ThreadId u : active) {
        if (com_may_conflict(config.continuation(u), s.var, s.is_read)) {
          wakeable = true;
          break;
        }
      }
      if (!wakeable) continue;
      active.push_back(s.thread);
      stuck.erase(stuck.begin() + static_cast<std::ptrdiff_t>(j));
      --j;
      changed = true;
    }
  }
  return !stuck.empty();
}

Stuck stuck_of(const StepSig& s) {
  return Stuck{s.thread, s.var, is_read_kind(s.kind), s.silent};
}

/// True iff some thread of `n` is *permanently stuck*: it has enabled
/// instances, all of them asleep, and no thread that can still move —
/// transitively, counting threads the movers may wake — can ever perform
/// an access dependent with them.
bool has_doomed_thread(const ONode& n) {
  thread_local std::vector<Stuck> stuck;
  thread_local std::vector<c11::ThreadId> active;
  stuck.clear();
  active.clear();
  for (std::size_t i = 0; i < n.sigs.size();) {
    const c11::ThreadId t = n.sigs[i].thread;  // sigs sorted by thread
    bool awake = false;
    for (; i < n.sigs.size() && n.sigs[i].thread == t; ++i) {
      if (!sleep_contains(n.sleep, n.sigs[i])) awake = true;
    }
    if (awake) {
      active.push_back(t);
    } else {
      stuck.push_back(stuck_of(n.sigs[i - 1]));
    }
  }
  return stuck_forever(n.config, stuck, active);
}

/// True iff the sibling class opened by executing instance `j` at `n`
/// *now* would be doomed from its very first node: every other thread
/// whose enabled instances are all independent of the instance and all
/// already asleep or claimed at `n` (`claimed` — the executed-sibling
/// registry snapshot; they arrive asleep in the child through the prefix)
/// is permanently stuck by the may-conflict fixpoint. The instance's own
/// thread is conservatively active with its pre-step continuation (a
/// superset of the post-step one for wakeup purposes), so a false
/// negative only delays the verdict to the child's own doom check.
bool sibling_class_doomed(const ONode& n, const std::vector<StepSig>& claimed,
                          std::size_t j) {
  const StepSig& sib = n.sigs[j];
  thread_local std::vector<Stuck> stuck;
  thread_local std::vector<c11::ThreadId> active;
  stuck.clear();
  active.clear();
  for (std::size_t i = 0; i < n.sigs.size();) {
    const c11::ThreadId t = n.sigs[i].thread;
    bool arrives_awake = t == sib.thread;
    for (; i < n.sigs.size() && n.sigs[i].thread == t; ++i) {
      const StepSig& s = n.sigs[i];
      if (arrives_awake) continue;
      // Dependent instances refresh in the child (new observed-write
      // choices appear awake); independent ones carry over with their
      // asleep/claimed status.
      if (!independent(s, sib) ||
          (!sleep_contains(n.sleep, s) && !contains(claimed, s))) {
        arrives_awake = true;
      }
    }
    if (arrives_awake) {
      active.push_back(t);
    } else {
      stuck.push_back(stuck_of(n.sigs[i - 1]));
    }
  }
  return stuck_forever(n.config, stuck, active);
}

/// Executes one transition (step index `i`) of `self` into the
/// pre-acquired `child` node (already registered as the step's claimant)
/// and schedules the child: along its inherited wakeup subtree when
/// non-empty, by free thread choice otherwise; a leaf reverses the races
/// on its trace. `prefix` is the executed-sibling snapshot taken when the
/// step was claimed. Returns false when the search must stop.
bool execute_step(Eng& eng, std::size_t me, const ONodePtr& self,
                  std::size_t i, ONodePtr child, WakeupTree subtree,
                  SleepSet prefix) {
  if (!materialize_child(eng, me, self, i, *child)) return false;
  ExploreStats& my = eng.totals[me].stats;

  // Sleep inheritance is always on: the sleep filter is integral to the
  // algorithm.
  const std::size_t pruned = inherit_sleep(*self, *child, prefix, my);
  child->doomed = pruned > 0 && has_doomed_thread(*child);

  bool guided = false;
  {
    // Publish the child: adopt the inherited subtree, schedule its
    // branches, mark the node ready and drain any grafts that arrived
    // while it was initializing — one critical section, so concurrent
    // inserters either stash before readiness or walk the final tree.
    std::lock_guard lock(child->mu);
    child->wut = std::move(subtree);
    guided = !child->wut.empty();
    if (guided) {
      // Follow the inherited wakeup subtree: one item per pending branch.
      for (WakeupTree::NodeId b = child->wut.first_branch();
           b != WakeupTree::kNil; b = child->wut.node(b).next_sibling) {
        bump(eng.worker_stats[me].enqueued);
        eng.push(me, OItem{child, b, child->wut.node(b).step.sig.thread});
      }
    }
    child->ready = true;
    const std::vector<WakeupSequence> grafts =
        std::move(child->pending_grafts);
    child->pending_grafts.clear();
    for (const WakeupSequence& v : grafts) {
      (void)insert_sequence_locked(eng, me, child, v);
    }
  }
  if (guided) return true;

  const bool blocked = !child->sigs.empty() && pruned == child->sigs.size();
  if (blocked) {
    // Every enabled transition is asleep and no wakeup branch steers out:
    // the execution dies here and its prefix was redundant. The optimal
    // mode never reaches this line (asserted over the catalogue);
    // defensively the trace still goes through race reversal below so no
    // coverage is lost if it ever fires.
    bump(my.sleep_blocked);
  }

  if (child->sigs.empty() || blocked) {
    // Dead end — a maximal execution, or a (should-not-happen) blocked
    // one: reverse its races (see leaf_race_reversals). Blocked prefixes
    // are included deliberately: their reversals carry demands that are
    // not always re-detected on the covering sibling paths, so skipping
    // them loses executions (caught by the fuzz differential oracle).
    leaf_race_reversals(eng, me, child);
    return true;
  }

  if (child->doomed) {
    // A thread sleeps on every one of its instances and nothing can ever
    // wake it (see the doomed-thread block above): the subtree holds no
    // final state and only re-explores classes covered by the sleeping
    // instances' sibling subtrees. Stop here, keeping the prefix's
    // race-reversal demands exactly as a blocked leaf would.
    leaf_race_reversals(eng, me, child);
    return true;
  }

  const c11::ThreadId first = pick_first(*child);
  if (first != 0) {
    bump(eng.worker_stats[me].enqueued);
    eng.push(me, OItem{std::move(child), WakeupTree::kNil, first});
  }
  return true;
}

/// The wakeup form of step i at n: its (canonically named) signature plus
/// the unfold marker. Never speculative — the step is enabled here.
WakeupStep wakeup_step_at(const ONode& n, std::size_t i) {
  return WakeupStep{n.sigs[i], n.steps[i].loop_unfold, false};
}

/// Expands a free-scheduling item: runs every awake transition of the
/// thread, recording each as a taken leaf in the node's wakeup tree so
/// later insertions subsume against it.
void expand_free(Eng& eng, std::size_t me, const ONodePtr& node,
                 c11::ThreadId thread) {
  ONode& n = *node;
  for (std::size_t i = 0; i < n.sigs.size(); ++i) {
    if (n.sigs[i].thread != thread) continue;
    if (eng.stop.load(std::memory_order_acquire)) return;
    const StepSig& sig = n.sigs[i];
    if (sleep_contains(n.sleep, sig)) {
      continue;  // covered by an earlier sibling subtree
    }
    SleepSet prefix;
    ONodePtr child = acquire_node(eng);
    {
      std::lock_guard lock(n.mu);
      if (contains(n.executed, sig)) continue;  // claimed by a branch item
      prefix.assign(n.executed.begin(), n.executed.end());
      n.executed.push_back(sig);
      n.claimed.push_back(child.weak());
      n.wut.add_executed(wakeup_step_at(n, i));
    }
    if (!execute_step(eng, me, node, i, std::move(child), WakeupTree{},
                      std::move(prefix))) {
      return;
    }
  }
}

/// Expands a wakeup-branch item: executes exactly the prescribed step and
/// hands the branch's subtree to the child. Steps are keyed on the full
/// signature — reads-from choice included — so a branch prescribes one
/// Mazurkiewicz class, not a thread.
void expand_branch(Eng& eng, std::size_t me, const ONodePtr& node,
                   WakeupTree::NodeId branch) {
  ONode& n = *node;
  std::size_t i = kNoStep;
  SleepSet prefix;
  WakeupTree subtree;
  ONodePtr child = acquire_node(eng);
  ONodePtr claimant;  ///< child the branch's continuation re-targets into
  /// Sequences to graft into `claimant` (i == kNoStep graft cases).
  thread_local std::vector<WakeupSequence> paths;
  paths.clear();
  {
    std::lock_guard lock(n.mu);
    if (n.wut.node(branch).taken) return;  // defensive double-schedule guard
    const WakeupStep bstep = n.wut.node(branch).step;
    i = find_wakeup_step(bstep, n.sigs, n.steps);
    if (i != kNoStep && contains(n.executed, n.sigs[i])) {
      // A sibling item already claimed exactly this step (a speculative
      // candidate and a free-scheduled or exact branch can name the same
      // signature). The claiming execution owns the step's subtree; this
      // branch's prescribed continuation, if any, is grafted into it
      // below.
      for (std::size_t e = 0; e < n.executed.size(); ++e) {
        if (n.executed[e] == n.sigs[i]) {
          claimant = n.claimed[e].lock();
          break;
        }
      }
      subtree = n.wut.take(branch);
      subtree.collect_paths(paths);
      i = kNoStep;
    } else if (i == kNoStep) {
      (void)n.wut.take(branch);
      if (bstep.speculative) {
        // A race-reversal candidate whose observed write is not actually
        // observable at this frame (shadowed by a newer same-variable
        // write, or the speculated mo position is unavailable). The
        // candidate set was a superset of the enabled instances by
        // construction; the enabled ones were inserted alongside, so
        // dropping this one loses nothing.
        return;
      }
      // A non-speculative prescribed step does not exist here — cannot
      // happen for a correctly inserted reversal of a direct race (the
      // exact step's observed write is always present in the reversed
      // frame; absence would imply an intermediate hb chain, making the
      // race non-direct). Fall back conservatively: drop the branch and
      // schedule every thread with awake transitions, degrading this
      // node to full local expansion (race detection below keeps
      // coverage complete).
      for (std::size_t j = 0; j < n.sigs.size(); ++j) {
        const c11::ThreadId q = n.sigs[j].thread;  // sigs sorted by thread
        if ((j == 0 || n.sigs[j - 1].thread != q) && has_awake_step(n, q)) {
          eng.push(me, OItem{node, WakeupTree::kNil, q});
        }
      }
      return;
    } else {
      subtree = n.wut.take(branch);
      prefix.assign(n.executed.begin(), n.executed.end());
      n.executed.push_back(n.sigs[i]);
      n.claimed.push_back(child.weak());
    }
  }

  if (i == kNoStep) {
    // Graft the branch's sequences into the claimant's wakeup tree (as
    // full sequences — insert rebuilds the sharing and schedules any
    // fresh toplevel branch). An expired claimant finished exploring its
    // whole subtree freely, which covers every maximal trace below its
    // step — the demand is moot there.
    if (claimant) {
      for (const WakeupSequence& v : paths) {
        (void)insert_sequence(eng, me, claimant, v);
      }
    }
    return;
  }
  const c11::ThreadId thread = n.sigs[i].thread;
  if (!execute_step(eng, me, node, i, std::move(child), std::move(subtree),
                    std::move(prefix))) {
    return;
  }
  // The prescribed step is one data instance of its thread's command; the
  // other enabled instances (different observed write / mo position) are
  // sibling Mazurkiewicz classes that a *shadowed* race (raced write
  // hb-covered by a newer one) never re-demands — they must branch here
  // or be lost (the fuzz oracle catches exactly this on branching
  // programs). Each is inserted as a single-step wakeup sequence:
  // insertion-time subsumption drops the ones already covered by taken
  // branches or the sleep filter, and race reversal below the survivors
  // re-detects whatever continuations they need. A doomed node opens no
  // new classes (every sibling instance leads to the same continuations
  // with the same permanently stuck sleepers), and neither does a class
  // that would arrive doomed given the siblings claimed by now — both
  // hold no final state below.
  if (n.doomed) return;
  thread_local std::vector<StepSig> claimed_now;
  {
    std::lock_guard lock(n.mu);
    claimed_now = n.executed;
  }
  for (std::size_t j = 0; j < n.sigs.size(); ++j) {
    if (n.sigs[j].thread != thread || j == i) continue;
    if (eng.stop.load(std::memory_order_acquire)) return;
    if (sleep_contains(n.sleep, n.sigs[j])) continue;
    if (sibling_class_doomed(n, claimed_now, j)) continue;
    const WakeupSequence sib{wakeup_step_at(n, j)};
    (void)insert_sequence(eng, me, node, sib);
  }
}

}  // namespace

void Optimal::start(Eng& eng, const ONodePtr& root, c11::ThreadId first) {
  root->ready = true;  // fully initialized before any item runs
  eng.push(0, OItem{root, WakeupTree::kNil, first});
}

/// Builds the happens-before row of the step about to be taken from
/// `self`; races are detected later, at maximal executions
/// (leaf_race_reversals).
void Optimal::incoming_row(Eng& /*eng*/, std::size_t /*me*/,
                           const ONodePtr& self, const StepSig& t_sig,
                           std::vector<char>& row_out) {
  thread_local std::vector<ONode*> nodes;
  build_incoming_row(*self, t_sig, nodes, row_out);
}

void Optimal::expand(Eng& eng, std::size_t me, OItem& item) {
  if (item.branch != WakeupTree::kNil) {
    expand_branch(eng, me, item.node, item.branch);
  } else {
    expand_free(eng, me, item.node, item.thread);
  }
}

template ExploreResult run<Optimal>(const interp::Config&,
                                    const ExploreOptions&, const Visitor&,
                                    std::size_t, std::vector<WorkerStats>*);

}  // namespace rc11::mc::tree
