// Tests for the fingerprint-based state-space core: the open-addressing
// seen sets, fingerprint determinism / collision-freedom against the
// string canonical keys, sequential vs. work-stealing parallel agreement
// over the whole litmus catalogue, parallel trace reconstruction, and
// sleep-set partial-order reduction.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "interp/config.hpp"
#include "lang/builder.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/checker.hpp"
#include "mc/dpor.hpp"
#include "mc/parallel.hpp"
#include "util/fingerprint.hpp"
#include "vcgen/peterson.hpp"

namespace rc11::mc {
namespace {

using lang::assign;
using lang::ProgramBuilder;

// --- Fingerprint primitive ----------------------------------------------------

TEST(Fingerprint, StreamingHashIsOrderSensitive) {
  util::FingerprintHasher a, b;
  a.mix(1);
  a.mix(2);
  b.mix(2);
  b.mix(1);
  EXPECT_NE(a.finish(), b.finish());
}

TEST(Fingerprint, DeterministicAcrossHasherInstances) {
  util::FingerprintHasher a, b;
  for (std::uint64_t w : {7ull, 0ull, 42ull}) {
    a.mix(w);
    b.mix(w);
  }
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Fingerprint, ToStringIs32HexDigits) {
  util::FingerprintHasher h;
  h.mix(123);
  const std::string s = h.finish().to_string();
  EXPECT_EQ(s.size(), 32u);
  EXPECT_EQ(s.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// --- SeenSet ------------------------------------------------------------------

util::Fingerprint fp_of(std::uint64_t i) {
  util::FingerprintHasher h;
  h.mix(i);
  return h.finish();
}

TEST(SeenSet, InsertDedupAndParentRecords) {
  SeenSet seen;
  const auto r0 = seen.insert(fp_of(0));
  EXPECT_TRUE(r0.inserted);
  const auto r1 = seen.insert(fp_of(1), r0.id, 3);
  EXPECT_TRUE(r1.inserted);

  const auto dup = seen.insert(fp_of(1), r0.id, 9);
  EXPECT_FALSE(dup.inserted);
  EXPECT_EQ(dup.id, r1.id);
  // First-discovered parent edge wins.
  EXPECT_EQ(seen.record(r1.id).parent, r0.id);
  EXPECT_EQ(seen.record(r1.id).step, 3u);
  EXPECT_EQ(seen.record(r0.id).parent, kNoState);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(SeenSet, GrowsPastInitialCapacity) {
  SeenSet seen;
  constexpr std::uint64_t kN = 50'000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(seen.insert(fp_of(i)).inserted);
  }
  EXPECT_EQ(seen.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_FALSE(seen.insert(fp_of(i)).inserted);
  }
  EXPECT_GT(seen.bytes(), kN * sizeof(StateRecord));
}

TEST(ConcurrentSeenSet, ParallelInsertionsAgree) {
  ConcurrentSeenSet seen;
  constexpr std::uint64_t kN = 20'000;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen] {
      for (std::uint64_t i = 0; i < kN; ++i) {
        (void)seen.insert(fp_of(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), kN);
}

TEST(ConcurrentSeenSet, RecordsResolveAcrossShards) {
  ConcurrentSeenSet seen;
  const auto root = seen.insert(fp_of(1000));
  std::vector<StateId> ids;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ids.push_back(seen.insert(fp_of(i), root.id, static_cast<std::uint32_t>(i)).id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const StateRecord rec = seen.record(ids[i]);
    EXPECT_EQ(rec.parent, root.id);
    EXPECT_EQ(rec.step, i);
    EXPECT_EQ(rec.fp, fp_of(i));
  }
}

// --- Fingerprints of real configurations --------------------------------------

TEST(StateFingerprints, MatchCanonicalKeyEquality) {
  // Across every state of every catalogue program: #distinct fingerprints
  // == #distinct canonical keys, i.e. no collisions and no false splits.
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    std::set<std::string> keys;
    std::set<util::Fingerprint> fps;
    Visitor v;
    v.on_state = [&](const interp::Config& c) {
      keys.insert(c.canonical_key());
      fps.insert(c.fingerprint());
      return true;
    };
    (void)explore(parsed.program, {}, v);
    EXPECT_EQ(keys.size(), fps.size()) << test.name;
  }
}

TEST(StateFingerprints, DeterministicAcrossRuns) {
  // Re-parsing and re-exploring the same program yields the same
  // fingerprint set (the hash has no run-dependent input).
  for (const auto& test : litmus::catalog()) {
    std::set<util::Fingerprint> runs[2];
    for (auto& fps : runs) {
      const auto parsed = lang::parse_litmus(test.source);
      Visitor v;
      v.on_state = [&fps](const interp::Config& c) {
        fps.insert(c.fingerprint());
        return true;
      };
      (void)explore(parsed.program, {}, v);
    }
    EXPECT_EQ(runs[0], runs[1]) << test.name;
  }
}

TEST(StateFingerprints, FinalExecutionsDistinctPerCatalogTest) {
  // Collision smoke test: the fingerprints of all final executions must be
  // as numerous as their canonical keys.
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    std::set<std::string> keys;
    Visitor v;
    v.on_final = [&](const interp::Config& c) {
      std::string key;
      for (std::uint64_t w : c.exec.canonical_key()) {
        key += std::to_string(w);
        key += ',';
      }
      keys.insert(key);
      return true;
    };
    (void)explore(parsed.program, {}, v);
    const auto fps = collect_final_executions(parsed.program);
    EXPECT_EQ(fps.size(), keys.size()) << test.name;
  }
}

// --- Sequential vs. parallel agreement ----------------------------------------

TEST(ParallelAgreement, StateCountsAndOutcomesAcrossCatalog) {
  ParallelOptions popts;
  popts.workers = 4;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);

    const auto seq_inv = check_invariant(
        parsed.program, [](const interp::Config&) { return true; });
    const auto par_inv = check_invariant_parallel(
        parsed.program, [](const interp::Config&) { return true; }, popts);
    EXPECT_TRUE(par_inv.holds) << test.name;
    EXPECT_EQ(par_inv.stats.states, seq_inv.stats.states) << test.name;
    EXPECT_EQ(par_inv.stats.finals, seq_inv.stats.finals) << test.name;

    const auto seq_out = enumerate_outcomes(parsed.program);
    const auto par_out = enumerate_outcomes_parallel(parsed.program, popts);
    EXPECT_EQ(seq_out.outcomes, par_out.outcomes) << test.name;
    EXPECT_EQ(seq_out.stats.states, par_out.stats.states) << test.name;
  }
}

TEST(ParallelAgreement, ReachabilityVerdictsAcrossCatalog) {
  ParallelOptions popts;
  popts.workers = 3;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto seq = check_reachable(parsed.program, parsed.condition);
    const auto par =
        check_reachable_parallel(parsed.program, parsed.condition, popts);
    EXPECT_EQ(seq.reachable, par.reachable) << test.name;
  }
}

// --- Parallel trace reconstruction --------------------------------------------

TEST(ParallelTraces, InvariantCounterexampleReplaysToViolation) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1), assign(x, 2)});
  const lang::Program p = std::move(b).build();

  const auto invariant = [xid = x.id](const interp::Config& c) {
    const auto w = c.exec.last(xid);
    return c.exec.event(w).wrval() != 2;
  };
  ParallelOptions popts;
  popts.workers = 4;
  const auto r = check_invariant_parallel(p, invariant, popts);
  ASSERT_FALSE(r.holds);
  ASSERT_FALSE(r.counterexample.empty());

  interp::StepOptions sopts;  // invariant checking: no tau compression
  const auto final_config = replay_trace(p, r.counterexample, sopts);
  ASSERT_TRUE(final_config.has_value()) << "trace does not replay";
  EXPECT_FALSE(invariant(*final_config))
      << "replayed trace does not violate the invariant";
}

TEST(ParallelTraces, ReachabilityWitnessReplaysToCondition) {
  const auto parsed = lang::parse_litmus(R"(litmus PW
var x = 0
var y = 0
thread 1 { x := 1; r0 := y; }
thread 2 { y := 1; r1 := x; }
exists (1:r0 == 0 && 2:r1 == 0)
)");
  ParallelOptions popts;
  popts.workers = 4;
  const auto r =
      check_reachable_parallel(parsed.program, parsed.condition, popts);
  ASSERT_TRUE(r.reachable);
  ASSERT_FALSE(r.witness.empty());

  const auto final_config =
      replay_trace(parsed.program, r.witness, popts.explore.step);
  ASSERT_TRUE(final_config.has_value()) << "witness does not replay";
  EXPECT_TRUE(final_config->terminated());
  EXPECT_TRUE(interp::eval_cond(parsed.condition, *final_config));
}

TEST(ParallelTraces, WorkerStatsCoverAllStates) {
  const auto parsed = lang::parse_litmus(R"(litmus WS
var x = 0
var y = 0
thread 1 { x := 1; x := 2; }
thread 2 { y := 1; y := 2; }
)");
  ParallelOptions popts;
  popts.workers = 3;
  ParallelRunInfo info;
  const auto r = check_invariant_parallel(
      parsed.program, [](const interp::Config&) { return true; }, popts,
      &info);
  ASSERT_EQ(info.workers.size(), 3u);
  std::size_t processed = 0;
  for (const auto& w : info.workers) processed += w.processed;
  EXPECT_EQ(processed, r.stats.states);
}

// --- Sleep-set partial-order reduction ----------------------------------------

TEST(SleepSets, PreserveInvariantVerdictOnPeterson) {
  const lang::Program p = vcgen::make_peterson();
  ExploreOptions plain, por;
  plain.step.loop_bound = 1;
  por.step.loop_bound = 1;
  por.por = PorMode::kSleepSets;

  const auto r_plain = check_invariant(p, vcgen::mutual_exclusion(), plain);
  const auto r_por = check_invariant(p, vcgen::mutual_exclusion(), por);
  EXPECT_EQ(r_plain.holds, r_por.holds);
  EXPECT_TRUE(r_por.holds);
  // Sleep sets prune transitions, not states.
  EXPECT_EQ(r_por.stats.states, r_plain.stats.states);
  EXPECT_GT(r_por.stats.por_pruned, 0u);
  EXPECT_LE(r_por.stats.transitions, r_plain.stats.transitions);
}

TEST(SleepSets, PreserveReachabilityOnMessagePassing) {
  for (const char* name : {"MP", "MP_ra", "MP_rel_rlx", "MP_rlx_acq"}) {
    const auto parsed =
        lang::parse_litmus(litmus::find_test(name).source);
    ExploreOptions plain, por;
    por.por = PorMode::kSleepSets;
    const auto r_plain =
        check_reachable(parsed.program, parsed.condition, plain);
    const auto r_por = check_reachable(parsed.program, parsed.condition, por);
    EXPECT_EQ(r_plain.reachable, r_por.reachable) << name;
  }
}

TEST(SleepSets, PreserveVerdictsAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    ExploreOptions por;
    por.por = PorMode::kSleepSets;
    const auto r_plain = check_reachable(parsed.program, parsed.condition);
    const auto r_por = check_reachable(parsed.program, parsed.condition, por);
    EXPECT_EQ(r_plain.reachable, r_por.reachable) << test.name;
  }
}

TEST(SleepSets, ReduceTransitionsOnIndependentWriters) {
  // Fully independent threads: the diamond explosion is where sleep sets
  // shine. States are preserved; generated transitions shrink.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  auto z = b.var("z", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  b.thread({assign(z, 1)});
  const lang::Program p = std::move(b).build();

  ExploreOptions plain, por;
  por.por = PorMode::kSleepSets;
  const auto r_plain = explore(p, plain, {});
  const auto r_por = explore(p, por, {});
  EXPECT_EQ(r_por.stats.states, r_plain.stats.states);
  EXPECT_EQ(r_por.stats.finals, r_plain.stats.finals);
  EXPECT_GT(r_por.stats.por_pruned, 0u);
  EXPECT_LT(r_por.stats.transitions, r_plain.stats.transitions);
}

// --- Parallel explorer honours ExploreOptions::por ------------------------------

TEST(ParallelSleepSets, PorNoLongerSilentlyIgnored) {
  // PR 1's parallel explorer silently ignored explore.por; it now carries
  // a sleep set in every deque entry. With one worker the LIFO order is
  // deterministic, so pruning must actually happen on independent writers.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  auto z = b.var("z", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  b.thread({assign(z, 1)});
  const lang::Program p = std::move(b).build();

  ParallelOptions popts;
  popts.workers = 1;
  popts.explore.por = PorMode::kSleepSets;
  const auto por = enumerate_outcomes_parallel(p, popts);
  const auto plain = enumerate_outcomes(p);
  EXPECT_GT(por.stats.por_pruned, 0u);
  EXPECT_LT(por.stats.transitions, plain.stats.transitions);
  // Sleep sets prune transitions, not states.
  EXPECT_EQ(por.stats.states, plain.stats.states);
  EXPECT_EQ(por.outcomes, plain.outcomes);
}

TEST(ParallelSleepSets, StatePreservingAcrossCatalog) {
  // The sharded sleep store (state-caching rule with per-item sleep sets)
  // must keep the parallel reduction state-preserving even under real
  // work stealing: identical unique-state counts and outcome sets.
  ParallelOptions popts;
  popts.workers = 4;
  popts.explore.por = PorMode::kSleepSets;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto seq = enumerate_outcomes(parsed.program);
    const auto par = enumerate_outcomes_parallel(parsed.program, popts);
    EXPECT_EQ(par.stats.states, seq.stats.states) << test.name;
    EXPECT_EQ(par.outcomes, seq.outcomes) << test.name;
  }
}

// --- Stats --------------------------------------------------------------------

TEST(Stats, ReportsPeakSeenBytesAndPorPruned) {
  ExploreStats st;
  st.peak_seen_bytes = 4096;
  st.por_pruned = 7;
  const std::string s = st.to_string();
  EXPECT_NE(s.find("peak_seen_bytes=4096"), std::string::npos);
  EXPECT_NE(s.find("por_pruned=7"), std::string::npos);
}

TEST(Stats, ExplorerRecordsPeakSeenBytes) {
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  const lang::Program p = std::move(b).build();
  const auto r = explore(p, {}, {});
  EXPECT_GT(r.stats.peak_seen_bytes, 0u);
}

TEST(Stats, MergeAddsCountersMaxesDepthOrsTruncated) {
  // operator+= is what every multi-worker engine uses to fold its
  // per-worker slabs into the run total; a dropped field here silently
  // zeroes that counter in every parallel report.
  ExploreStats a;
  a.states = 10;
  a.transitions = 20;
  a.merged = 1;
  a.finals = 2;
  a.max_depth = 5;
  a.peak_seen_bytes = 100;
  a.por_pruned = 3;
  a.backtracks = 4;
  a.sleep_blocked = 5;
  a.complete_traces = 6;
  a.redundant_transitions = 7;
  a.enum_threads_reused = 8;
  a.enum_threads_recomputed = 9;

  ExploreStats b;
  b.states = 100;
  b.transitions = 200;
  b.merged = 10;
  b.finals = 20;
  b.max_depth = 3;  // smaller: max keeps 5
  b.peak_seen_bytes = 1000;
  b.por_pruned = 30;
  b.backtracks = 40;
  b.sleep_blocked = 50;
  b.complete_traces = 60;
  b.redundant_transitions = 70;
  b.enum_threads_reused = 80;
  b.enum_threads_recomputed = 90;
  b.truncated = true;

  a += b;
  EXPECT_EQ(a.states, 110u);
  EXPECT_EQ(a.transitions, 220u);
  EXPECT_EQ(a.merged, 11u);
  EXPECT_EQ(a.finals, 22u);
  EXPECT_EQ(a.max_depth, 5u);  // max, not sum
  EXPECT_EQ(a.peak_seen_bytes, 1100u);
  EXPECT_EQ(a.por_pruned, 33u);
  EXPECT_EQ(a.backtracks, 44u);
  EXPECT_EQ(a.sleep_blocked, 55u);
  EXPECT_EQ(a.complete_traces, 66u);
  EXPECT_EQ(a.redundant_transitions, 77u);
  EXPECT_EQ(a.enum_threads_reused, 88u);
  EXPECT_EQ(a.enum_threads_recomputed, 99u);
  EXPECT_TRUE(a.truncated);  // ORed in

  // Merging a default-constructed ExploreStats is the identity.
  const ExploreStats snapshot = a;
  a += ExploreStats{};
  EXPECT_EQ(a.states, snapshot.states);
  EXPECT_EQ(a.max_depth, snapshot.max_depth);
  EXPECT_EQ(a.truncated, snapshot.truncated);
}

// --- Per-worker enum-counter attribution ---------------------------------------

// The thread_local interp step-cache counters are flushed into the owning
// worker's slab, so the reused/recomputed split survives steal handoffs.
// Pin: sum over WorkerStats == the engine's ExploreStats totals, and the
// counters actually fire on catalogue-sized programs.
void expect_worker_enum_split(const std::vector<WorkerStats>& ws,
                              const ExploreStats& stats, const char* what) {
  std::size_t w_reused = 0, w_recomputed = 0;
  for (const WorkerStats& w : ws) {
    w_reused += w.enum_reused;
    w_recomputed += w.enum_recomputed;
  }
  EXPECT_EQ(w_reused, stats.enum_threads_reused) << what;
  EXPECT_EQ(w_recomputed, stats.enum_threads_recomputed) << what;
  EXPECT_GT(w_reused + w_recomputed, 0u) << what;
}

TEST(WorkerEnumCounters, DporSplitSumsToEngineTotals) {
  const auto parsed =
      lang::parse_litmus(litmus::find_test("IRIW_ra").source);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ExploreOptions opts;
    opts.por = PorMode::kSourceSets;
    std::vector<WorkerStats> ws;
    const auto r = explore_tree(interp::initial_config(parsed.program),
                                opts, {}, workers, &ws);
    ASSERT_EQ(ws.size(), workers);
    expect_worker_enum_split(ws, r.stats, "dpor");
  }
}

TEST(WorkerEnumCounters, OptimalSplitSumsToEngineTotals) {
  const auto parsed =
      lang::parse_litmus(litmus::find_test("IRIW_ra").source);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ExploreOptions opts;
    opts.por = PorMode::kOptimal;
    std::vector<WorkerStats> ws;
    const auto r = explore_tree(interp::initial_config(parsed.program),
                                opts, {}, workers, &ws);
    ASSERT_EQ(ws.size(), workers);
    expect_worker_enum_split(ws, r.stats, "optimal");
  }
}

TEST(WorkerEnumCounters, ParallelExplorerSplitSumsToEngineTotals) {
  const auto parsed =
      lang::parse_litmus(litmus::find_test("IRIW_ra").source);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ParallelOptions popts;
    popts.workers = workers;
    ParallelRunInfo info;
    const auto r =
        enumerate_outcomes_parallel(parsed.program, popts, &info);
    ASSERT_EQ(info.workers.size(), workers);
    expect_worker_enum_split(info.workers, r.stats, "parallel");
  }
}

}  // namespace
}  // namespace rc11::mc
