#include "mc/dpor.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "mc/harness.hpp"

namespace rc11::mc::tree {

/// The source-set policy: a node's scheduling state is the set of threads
/// scheduled there; expanding an item runs every (awake) transition of
/// one scheduled thread, and each race found on the way schedules one
/// initial of its reversal at the racing node.
struct SourceSets {
  struct NodeState {
    /// Threads scheduled at this node, in insertion order (guarded by mu).
    std::vector<c11::ThreadId> scheduled;
    void scrub() { scheduled.clear(); }
  };

  struct Item {
    NodePtr<SourceSets> node;
    c11::ThreadId thread = 0;  ///< the scheduled thread to expand
  };

  static void start(Engine<SourceSets>& eng, const NodePtr<SourceSets>& root,
                    c11::ThreadId first);
  static void incoming_row(Engine<SourceSets>& eng, std::size_t me,
                           const NodePtr<SourceSets>& self,
                           const StepSig& t_sig, std::vector<char>& row_out);
  static void expand(Engine<SourceSets>& eng, std::size_t me, Item& item);
};

namespace {

using SNode = Node<SourceSets>;
using SNodePtr = NodePtr<SourceSets>;

/// Source-set backtrack insertion: unless some initial is already
/// scheduled at `target`, schedule one — preferring a thread with an
/// awake transition. When every initial is fully asleep, the race's
/// reversal is covered by the sibling subtree that put it to sleep; the
/// first initial is still marked scheduled so later races don't
/// reconsider the node.
void insert_backtrack(Engine<SourceSets>& eng, std::size_t me,
                      const SNodePtr& target,
                      const std::vector<c11::ThreadId>& initials) {
  std::lock_guard lock(target->mu);
  for (c11::ThreadId q : initials) {
    if (contains(target->scheduled, q)) return;
  }
  for (c11::ThreadId q : initials) {
    if (has_awake_step(*target, q)) {
      target->scheduled.push_back(q);
      ++eng.totals[me].stats.backtracks;
      eng.push(me, SourceSets::Item{target, q});
      return;
    }
  }
  target->scheduled.push_back(initials.front());
}

}  // namespace

void SourceSets::start(Engine<SourceSets>& eng, const SNodePtr& root,
                       c11::ThreadId first) {
  root->scheduled.push_back(first);
  eng.push(0, Item{root, first});
}

/// Detects every reversible race between the step about to be taken from
/// `self` (signature `t_sig`) and the spine E, and inserts the source-set
/// backtrack points, while building t's happens-before row (the child's
/// hb_row): one O(depth^2) row per transition, the spine's rows cached in
/// their nodes.
void SourceSets::incoming_row(Engine<SourceSets>& eng, std::size_t me,
                              const SNodePtr& self, const StepSig& t_sig,
                              std::vector<char>& row_out) {
  obs::ScopedPhase race_phase(obs::Phase::kRaceDetect);
  // Thread-local scratch: one call per executed transition, keep it
  // allocation-free.
  thread_local std::vector<SNode*> nodes;
  build_incoming_row(*self, t_sig, nodes, row_out);
  const std::size_t d = self->depth;
  if (d == 0) return;
  const auto sig_at = [&](std::size_t k) -> const StepSig& {
    return nodes[k]->in_sig;
  };
  const auto row_at = [&](std::size_t k) -> const std::vector<char>& {
    return nodes[k]->hb_row;
  };

  for_each_reversible_race(
      d, t_sig, sig_at, row_at, row_out, [&](std::size_t i) {
        // v = notdep(e_i, E).t: the steps after e_i not happening-after
        // it, then t. The initial threads are the threads of v's weak
        // initials (each weak initial is its thread's first step in v).
        thread_local std::vector<std::size_t> v;
        notdep_indices(i, d, row_at, v);
        v.push_back(d + 1);  // t itself
        const auto v_sig = [&](std::size_t a) -> const StepSig& {
          return v[a] <= d ? sig_at(v[a]) : t_sig;
        };
        thread_local std::vector<std::size_t> wi;
        weak_initial_indices(v.size(), v_sig, wi);
        thread_local std::vector<c11::ThreadId> initials;
        initials.clear();
        for (const std::size_t a : wi) initials.push_back(v_sig(a).thread);
        if (initials.empty()) return;  // unreachable: v's head is initial

        insert_backtrack(eng, me, nodes[i]->parent, initials);
      });
}

/// Expands one scheduled (node, thread) pair: runs every enabled
/// transition of the thread (awake ones only under kSourceSetsSleep) and
/// schedules each child's first thread.
void SourceSets::expand(Engine<SourceSets>& eng, std::size_t me, Item& item) {
  SNode& n = *item.node;
  ExploreStats& my = eng.totals[me].stats;
  const bool sleep_filter = eng.options.por == PorMode::kSourceSetsSleep;

  for (std::size_t i = 0; i < n.sigs.size(); ++i) {
    if (n.sigs[i].thread != item.thread) continue;
    if (eng.stop.load(std::memory_order_acquire)) return;

    const StepSig& sig = n.sigs[i];
    if (sleep_filter && sleep_contains(n.sleep, sig)) {
      continue;  // covered by an earlier sibling subtree (counted below)
    }

    // Sleep-order prefix: the sibling transitions executed from n before
    // this one (their subtrees cover what this child may sleep on). The
    // snapshot-and-append is one critical section so concurrent executors
    // at the same node order themselves consistently.
    SleepSet prefix;
    if (sleep_filter) {
      std::lock_guard lock(n.mu);
      prefix.assign(n.executed.begin(), n.executed.end());
      n.executed.push_back(sig);
    }

    SNodePtr child = acquire_node(eng);
    if (!materialize_child(eng, me, item.node, i, *child)) return;

    if (sleep_filter) {
      const std::size_t pruned = inherit_sleep(n, *child, prefix, my);
      if (!child->sigs.empty() && pruned == child->sigs.size()) {
        // Every enabled transition is asleep: the execution dies here and
        // its prefix was wasted — the stateless-DPOR redundancy the
        // optimal wakeup-tree policy (optimal.hpp) eliminates.
        bump(my.sleep_blocked);
      }
    }

    const c11::ThreadId first = pick_first(*child);
    if (first != 0) {
      {
        std::lock_guard lock(child->mu);
        child->scheduled.push_back(first);
      }
      bump(eng.worker_stats[me].enqueued);
      eng.push(me, Item{std::move(child), first});
    }
  }
}

template ExploreResult run<SourceSets>(const interp::Config&,
                                       const ExploreOptions&, const Visitor&,
                                       std::size_t, std::vector<WorkerStats>*);

}  // namespace rc11::mc::tree

namespace rc11::mc {

ExploreResult explore_tree(const interp::Config& start,
                           const ExploreOptions& options,
                           const Visitor& visitor, std::size_t workers,
                           std::vector<WorkerStats>* worker_stats) {
  return is_optimal_dpor(options.por)
             ? tree::run<tree::Optimal>(start, options, visitor, workers,
                                        worker_stats)
             : tree::run<tree::SourceSets>(start, options, visitor, workers,
                                           worker_stats);
}

}  // namespace rc11::mc
