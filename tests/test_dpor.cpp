// Differential oracle for the partial-order reduction layers.
//
// POR bugs manifest as *silently missed* executions, so every reduction
// mode is cross-checked against full enumeration — never against itself.
// For each program in the litmus catalogue plus a table of hand-written
// racy/raceless programs, the oracle asserts that
//
//   {sequential, parallel} x {full, sleep sets, source-DPOR,
//    source-DPOR+sleep, optimal, optimal-parsimonious}
//
// all agree on: the litmus exists-condition verdict, the set of
// final-state (terminated-execution) fingerprints, the outcome set, and
// the race verdict. Also enforced here:
//
//   * the ISSUE acceptance bars — the default DPOR mode explores at most
//     50% of the full-exploration state count on at least half the
//     catalogue; the optimal wakeup-tree modes report zero sleep-blocked
//     executions on every catalogue program and never visit more
//     transitions than stateless source-set DPOR;
//   * stateless source-set DPOR's redundancy (sleep-blocked executions /
//     re-explored shared suffixes) is nonzero on an all-conflicting
//     litmus — the pathology the optimal engine removes;
//   * DPOR visits a subset of the reachable states (never an invented
//     one);
//   * every counterexample/witness trace returned under DPOR (all three
//     tree engines) replays deterministically to the reported violating
//     state (replay_trace);
//   * check_invariant downgrades every DPOR mode to the state-preserving
//     sleep-set mode;
//   * every deterministic counter of the sequential tree engines matches
//     a pinned golden table over the catalogue and the RMW family, and the
//     race check's verdict, race, trace length and counters under the
//     full and sleep-set modes match a second one.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "c11/races.hpp"
#include "lang/builder.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/checker.hpp"
#include "mc/dpor.hpp"
#include "mc/parallel.hpp"

namespace rc11::mc {
namespace {

using lang::assign;
using lang::assign_na;
using lang::assign_rel;
using lang::ProgramBuilder;
using lang::reg_assign;

struct Mode {
  const char* name;
  PorMode por;
  bool parallel;
};

constexpr Mode kModes[] = {
    {"seq-full", PorMode::kNone, false},
    {"seq-sleep", PorMode::kSleepSets, false},
    {"seq-dpor", PorMode::kSourceSets, false},
    {"seq-dpor-sleep", PorMode::kSourceSetsSleep, false},
    {"seq-optimal", PorMode::kOptimal, false},
    {"seq-optimal-pars", PorMode::kOptimalParsimonious, false},
    {"par-full", PorMode::kNone, true},
    {"par-sleep", PorMode::kSleepSets, true},
    {"par-dpor", PorMode::kSourceSets, true},
    {"par-dpor-sleep", PorMode::kSourceSetsSleep, true},
    {"par-optimal", PorMode::kOptimal, true},
    {"par-optimal-pars", PorMode::kOptimalParsimonious, true},
};

/// The tree-engine modes (traces replay under tau compression).
constexpr PorMode kTreeModes[] = {
    PorMode::kSourceSets, PorMode::kSourceSetsSleep, PorMode::kOptimal,
    PorMode::kOptimalParsimonious};

ExploreOptions seq_options(PorMode por) {
  ExploreOptions o;
  o.por = por;
  return o;
}

ParallelOptions par_options(PorMode por) {
  ParallelOptions o;
  o.explore.por = por;
  o.workers = 4;
  return o;
}

std::set<util::Fingerprint> final_fps(const lang::Program& p, const Mode& m) {
  if (m.parallel) {
    return collect_final_executions_parallel(p, par_options(m.por));
  }
  return collect_final_executions(p, seq_options(m.por));
}

std::set<Outcome> outcomes(const lang::Program& p, const Mode& m) {
  if (m.parallel) {
    return enumerate_outcomes_parallel(p, par_options(m.por)).outcomes;
  }
  return enumerate_outcomes(p, seq_options(m.por)).outcomes;
}

bool reachable(const lang::Program& p, const lang::CondPtr& cond,
               const Mode& m) {
  if (m.parallel) {
    return check_reachable_parallel(p, cond, par_options(m.por)).reachable;
  }
  return check_reachable(p, cond, seq_options(m.por)).reachable;
}

RaceResult race(const lang::Program& p, const Mode& m) {
  if (m.parallel) return check_race_free_parallel(p, par_options(m.por));
  return check_race_free(p, seq_options(m.por));
}

/// Traces produced by the DPOR engine replay under tau compression
/// (scheduling points are visible steps only); all other traces replay
/// under the plain step options.
interp::StepOptions replay_options(PorMode por) {
  interp::StepOptions o;
  o.tau_compress = is_dpor(por);
  return o;
}

// --- The differential oracle over the litmus catalogue ------------------------

TEST(DporOracle, VerdictsAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const bool expect =
        reachable(parsed.program, parsed.condition, kModes[0]);
    for (const Mode& m : kModes) {
      EXPECT_EQ(reachable(parsed.program, parsed.condition, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, FinalStateFingerprintsAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto expect = final_fps(parsed.program, kModes[0]);
    ASSERT_FALSE(expect.empty()) << test.name;
    for (const Mode& m : kModes) {
      EXPECT_EQ(final_fps(parsed.program, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, OutcomesAgreeAcrossCatalog) {
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto expect = outcomes(parsed.program, kModes[0]);
    for (const Mode& m : kModes) {
      EXPECT_EQ(outcomes(parsed.program, m), expect)
          << test.name << " under " << m.name;
    }
  }
}

TEST(DporOracle, DporVisitsOnlyReachableStates) {
  // The DPOR engine counts unique fingerprints, which must be a subset of
  // the full exploration's reachable set — never more states, and never
  // an invented one (checked via counts plus fingerprint-set inclusion on
  // the finals above).
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto full = explore(parsed.program, seq_options(PorMode::kNone), {});
    for (PorMode por : kTreeModes) {
      const auto dpor = explore(parsed.program, seq_options(por), {});
      EXPECT_LE(dpor.stats.states, full.stats.states) << test.name;
      EXPECT_GT(dpor.stats.states, 0u) << test.name;
    }
  }
}

TEST(DporOracle, DefaultDporHalvesStatesOnHalfTheCatalog) {
  // The ISSUE acceptance bar: the default reduction explores <= 50% of
  // the full-exploration state count on at least half the catalogue.
  std::size_t total = 0;
  std::size_t halved = 0;
  std::string summary;
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto full = explore(parsed.program, seq_options(PorMode::kNone), {});
    const auto dpor = explore(parsed.program, seq_options(kDefaultPor), {});
    ++total;
    if (dpor.stats.states * 2 <= full.stats.states) ++halved;
    summary += test.name + std::string(": ") +
               std::to_string(dpor.stats.states) + "/" +
               std::to_string(full.stats.states) + "\n";
  }
  EXPECT_GE(halved * 2, total) << "DPOR states / full states per test:\n"
                               << summary;
}

// --- Optimality (the tentpole acceptance bars) --------------------------------

TEST(OptimalDpor, ZeroSleepBlockedAcrossCatalog) {
  // The wakeup-tree engine never starts an execution the sleep filter
  // kills: stats.sleep_blocked must be zero on every catalogue program,
  // sequentially and in parallel. The parsimonious flavour trades the
  // strict guarantee for shorter sequences, and parallel scheduling can
  // shift where its pruned sequences run dry — so it is pinned on the
  // deterministic sequential engine only.
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
      const auto seq = explore(parsed.program, seq_options(por), {});
      EXPECT_EQ(seq.stats.sleep_blocked, 0u)
          << test.name << " under sequential " << por_mode_name(por);
    }
    const auto par =
        enumerate_outcomes_parallel(parsed.program,
                                    par_options(PorMode::kOptimal));
    EXPECT_EQ(par.stats.sleep_blocked, 0u)
        << test.name << " under parallel optimal";
  }
}

TEST(OptimalDpor, TransitionsNeverExceedSourceSetDporAcrossCatalog) {
  // The optimal engine's visited-transition count is bounded by the
  // stateless source-set DPOR engine's on every catalogue program —
  // including the all-conflicting ones where the stateless tree
  // re-explores shared suffixes past full exploration. (Against the
  // sleep-composed kSourceSetsSleep variant the bound holds on all but
  // IRIW-shaped programs, where thread-granular sibling branching under
  // wakeup guidance pays a small premium — see src/mc/README.md.)
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    const auto src = explore(parsed.program, seq_options(PorMode::kSourceSets),
                             {});
    const auto opt =
        explore(parsed.program, seq_options(PorMode::kOptimal), {});
    EXPECT_LE(opt.stats.transitions, src.stats.transitions) << test.name;
  }
}

TEST(OptimalDpor, StatelessDporRedundancyIsNonzeroOnAllConflictingLitmus) {
  // Pins the pathology the tentpole fixes: on CoRR2 — the catalogue's
  // all-conflicting workload (two same-variable writers, two readers
  // reading the variable twice) — stateless source-set DPOR re-explores
  // shared suffixes (redundant_transitions > 0) and, without the sleep
  // filter, visits MORE transitions than full exploration.
  const auto parsed = lang::parse_litmus(litmus::find_test("CoRR2").source);
  const auto full = explore(parsed.program, seq_options(PorMode::kNone), {});
  const auto src =
      explore(parsed.program, seq_options(PorMode::kSourceSets), {});
  const auto src_sleep =
      explore(parsed.program, seq_options(PorMode::kSourceSetsSleep), {});
  EXPECT_GT(src.stats.redundant_transitions, 0u);
  EXPECT_GT(src_sleep.stats.redundant_transitions, 0u);
  EXPECT_GT(src.stats.transitions, full.stats.transitions)
      << "stateless DPOR no longer exceeds full exploration on CoRR2; "
         "update this pin";
  // The optimal engine stays at or below both on the same program.
  const auto opt = explore(parsed.program, seq_options(PorMode::kOptimal), {});
  EXPECT_LE(opt.stats.transitions, src_sleep.stats.transitions);
  EXPECT_LT(opt.stats.transitions, src.stats.transitions);
  EXPECT_EQ(opt.stats.sleep_blocked, 0u);
}

TEST(OptimalDpor, GraphExplorersReportZeroRedundancy) {
  // The deduplicating graph explorers merge duplicates instead of
  // re-expanding them: redundant_transitions is tree-engine-only.
  const auto parsed = lang::parse_litmus(litmus::find_test("CoRR2").source);
  for (PorMode por : {PorMode::kNone, PorMode::kSleepSets}) {
    const auto r = explore(parsed.program, seq_options(por), {});
    EXPECT_EQ(r.stats.redundant_transitions, 0u) << por_mode_name(por);
    EXPECT_EQ(r.stats.sleep_blocked, 0u) << por_mode_name(por);
  }
}

// --- Hand-written racy / raceless programs ------------------------------------

struct NamedProgram {
  std::string name;
  lang::Program program;
  bool racy;  ///< expected race verdict
};

std::vector<NamedProgram> race_table() {
  std::vector<NamedProgram> table;
  {
    // Unsynchronised NA write vs NA read: the canonical race.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto r0 = b.reg("r0");
    b.thread({assign_na(d, 1)});
    b.thread({reg_assign(r0, d.na())});
    table.push_back({"na_race", std::move(b).build(), true});
  }
  {
    // Release/acquire message passing protects the NA data: raceless.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto f = b.var("f", 0);
    auto r0 = b.reg("r0");
    auto r1 = b.reg("r1");
    b.thread({assign_na(d, 5), assign_rel(f, 1)});
    b.thread({reg_assign(r0, f.acq()),
              lang::if_then_else(lang::ExprPtr(r0) == lang::constant(1),
                                 reg_assign(r1, d.na()), lang::skip())});
    table.push_back({"na_mp_ra_guarded", std::move(b).build(), false});
  }
  {
    // Same shape but the flag is relaxed: no sw edge, so the guarded NA
    // read still races with the NA write.
    ProgramBuilder b;
    auto d = b.var("d", 0);
    auto f = b.var("f", 0);
    auto r0 = b.reg("r0");
    auto r1 = b.reg("r1");
    b.thread({assign_na(d, 5), assign(f, 1)});
    b.thread({reg_assign(r0, f),
              lang::if_then_else(lang::ExprPtr(r0) == lang::constant(1),
                                 reg_assign(r1, d.na()), lang::skip())});
    table.push_back({"na_mp_rlx_races", std::move(b).build(), true});
  }
  {
    // NA writes to distinct variables: no conflict, raceless.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    auto y = b.var("y", 0);
    b.thread({assign_na(x, 1)});
    b.thread({assign_na(y, 1)});
    table.push_back({"na_disjoint_vars", std::move(b).build(), false});
  }
  {
    // Fully atomic contention: atomics never race.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    auto r0 = b.reg("r0");
    b.thread({assign(x, 1), assign(x, 2)});
    b.thread({lang::swap(x, 3)});
    b.thread({reg_assign(r0, lang::ExprPtr(x))});
    table.push_back({"atomic_contention", std::move(b).build(), false});
  }
  {
    // Two NA writers to the same variable: write/write race.
    ProgramBuilder b;
    auto x = b.var("x", 0);
    b.thread({assign_na(x, 1)});
    b.thread({assign_na(x, 2)});
    table.push_back({"na_ww_race", std::move(b).build(), true});
  }
  return table;
}

TEST(DporOracle, RaceVerdictsAgreeOnHandwrittenTable) {
  for (const auto& entry : race_table()) {
    for (const Mode& m : kModes) {
      const RaceResult r = race(entry.program, m);
      EXPECT_EQ(r.race_free, !entry.racy)
          << entry.name << " under " << m.name
          << (r.race_free ? "" : " race: " + r.race);
    }
  }
}

TEST(DporOracle, OutcomesAgreeOnHandwrittenTable) {
  // The racy/raceless table is also a differential workload for the
  // outcome and fingerprint oracles (NA accesses behave as relaxed at the
  // rf/mo layer, so full enumeration is well-defined).
  for (const auto& entry : race_table()) {
    const auto expect_out = outcomes(entry.program, kModes[0]);
    const auto expect_fps = final_fps(entry.program, kModes[0]);
    for (const Mode& m : kModes) {
      EXPECT_EQ(outcomes(entry.program, m), expect_out)
          << entry.name << " under " << m.name;
      EXPECT_EQ(final_fps(entry.program, m), expect_fps)
          << entry.name << " under " << m.name;
    }
  }
}

// --- Trace-replay regressions -------------------------------------------------

TEST(DporTraces, WitnessesReplayAcrossCatalog) {
  // Every witness returned under DPOR (both explorers) must replay
  // deterministically to a terminated state satisfying the condition.
  for (const auto& test : litmus::catalog()) {
    const auto parsed = lang::parse_litmus(test.source);
    for (PorMode por : kTreeModes) {
      const auto seq =
          check_reachable(parsed.program, parsed.condition, seq_options(por));
      if (seq.reachable) {
        const auto c =
            replay_trace(parsed.program, seq.witness, replay_options(por));
        ASSERT_TRUE(c.has_value()) << test.name << " (sequential DPOR)";
        EXPECT_TRUE(c->terminated()) << test.name;
        EXPECT_TRUE(interp::eval_cond(parsed.condition, *c)) << test.name;
      }
      const auto par = check_reachable_parallel(parsed.program,
                                                parsed.condition,
                                                par_options(por));
      if (par.reachable) {
        const auto c =
            replay_trace(parsed.program, par.witness, replay_options(por));
        ASSERT_TRUE(c.has_value()) << test.name << " (parallel DPOR)";
        EXPECT_TRUE(c->terminated()) << test.name;
        EXPECT_TRUE(interp::eval_cond(parsed.condition, *c)) << test.name;
      }
    }
  }
}

TEST(DporTraces, RaceTracesReplayToRacyState) {
  for (const auto& entry : race_table()) {
    if (!entry.racy) continue;
    for (const Mode& m : kModes) {
      const RaceResult r = race(entry.program, m);
      ASSERT_FALSE(r.race_free) << entry.name << " under " << m.name;
      ASSERT_FALSE(r.trace.empty()) << entry.name << " under " << m.name;
      const auto c =
          replay_trace(entry.program, r.trace, replay_options(m.por));
      ASSERT_TRUE(c.has_value())
          << entry.name << " under " << m.name << ": trace does not replay";
      EXPECT_TRUE(c11::find_race(c->exec).has_value())
          << entry.name << " under " << m.name
          << ": replayed state has no race";
    }
  }
}

// --- Invariant downgrade ------------------------------------------------------

TEST(DporOracle, CheckInvariantDowngradesDporToSleepSets) {
  // Invariants observe intermediate global states, which DPOR may skip;
  // the checker must fall back to the state-preserving sleep-set mode —
  // observable as an identical state count to the plain run.
  const auto parsed = lang::parse_litmus(litmus::find_test("SB").source);
  const auto plain = check_invariant(
      parsed.program, [](const interp::Config&) { return true; },
      seq_options(PorMode::kNone));
  for (PorMode por : {kDefaultPor, PorMode::kOptimal}) {
    const auto dpor = check_invariant(
        parsed.program, [](const interp::Config&) { return true; },
        seq_options(por));
    EXPECT_TRUE(dpor.holds) << por_mode_name(por);
    EXPECT_EQ(dpor.stats.states, plain.stats.states) << por_mode_name(por);

    const auto par_dpor = check_invariant_parallel(
        parsed.program, [](const interp::Config&) { return true; },
        par_options(por));
    EXPECT_TRUE(par_dpor.holds) << por_mode_name(por);
    EXPECT_EQ(par_dpor.stats.states, plain.stats.states)
        << por_mode_name(por);
  }
}

// --- Reduction sanity ---------------------------------------------------------

TEST(DporReduction, IndependentWritersCollapseToOneTraceClass) {
  // Three fully independent writers: full exploration visits the 2^3
  // interleaving lattice; DPOR schedules a single trace (all steps
  // commute), so states = path length.
  ProgramBuilder b;
  auto x = b.var("x", 0);
  auto y = b.var("y", 0);
  auto z = b.var("z", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(y, 1)});
  b.thread({assign(z, 1)});
  const lang::Program p = std::move(b).build();

  const auto full = explore(p, seq_options(PorMode::kNone), {});
  const auto dpor = explore(p, seq_options(kDefaultPor), {});
  EXPECT_EQ(full.stats.states, 8u);
  EXPECT_EQ(dpor.stats.states, 4u);  // one linear trace: root + 3 steps
  EXPECT_EQ(dpor.stats.backtracks, 0u);
  EXPECT_EQ(full.stats.finals, 1u);
  EXPECT_EQ(dpor.stats.finals, 1u);
  for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
    const auto opt = explore(p, seq_options(por), {});
    EXPECT_EQ(opt.stats.states, 4u) << por_mode_name(por);
    EXPECT_EQ(opt.stats.backtracks, 0u) << por_mode_name(por);
    EXPECT_EQ(opt.stats.redundant_transitions, 0u) << por_mode_name(por);
  }
}

// --- RMW-nondeterminism family ------------------------------------------------
//
// Programs whose nondeterminism flows through RMW *data* values rather
// than thread schedules alone: bounded test-and-set lock-acquisition
// loops, an emulated fetch-add race (acquire read + swap of read+1), and
// locations with >= 3 RMW writers. PR 5's thread-deterministic optimality
// argument did not cover these — exploration keyed on reads-from choices
// must never start a sleep-doomed execution here either, and all twelve
// mode x parallelism combinations must agree on verdict, outcome set, and
// final-state fingerprints.

constexpr int kRmwLoopBound = 2;  ///< bounds the TAS retry loops

constexpr const char* kRmwFamily[] = {
    R"(litmus rmw_tas_lock
var l = 0
var c = 0
thread 1 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 1; l :=R 0; }
thread 2 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 2; l :=R 0; }
thread 3 { r := l.swap(1); while (r != 0) { r := l.swap(1); } c := 3; l :=R 0; }
exists (c == 1)
)",
    R"(litmus rmw_fadd_race
var x = 0
thread 1 { r := x@A; x.swap(r + 1); }
thread 2 { r := x@A; x.swap(r + 1); }
thread 3 { r := x@A; x.swap(r + 1); }
exists (x == 3)
)",
    R"(litmus rmw_three_swappers
var x = 0
thread 1 { r := x.swap(1); s := x@A; }
thread 2 { r := x.swap(2); s := x@A; }
thread 3 { r := x.swap(3); s := x@A; }
exists (1:r == 3 && x == 1)
)",
    R"(litmus rmw_swap_chain
var x = 0
var y = 0
thread 1 { r := x.swap(1); y := r + 1; }
thread 2 { s := y.swap(2); x := s; }
thread 3 { t := x.swap(3); u := y.swap(4); }
exists (x == 0 && y == 2)
)",
};

ExploreOptions rmw_seq_options(PorMode por) {
  ExploreOptions o = seq_options(por);
  o.step.loop_bound = kRmwLoopBound;
  return o;
}

ParallelOptions rmw_par_options(PorMode por) {
  ParallelOptions o = par_options(por);
  o.explore.step.loop_bound = kRmwLoopBound;
  return o;
}

TEST(RmwNondeterminism, AllModesAgreeOnVerdictOutcomesAndFinals) {
  for (const char* source : kRmwFamily) {
    const auto parsed = lang::parse_litmus(source);
    const auto& p = parsed.program;
    const bool expect_verdict =
        check_reachable(p, parsed.condition, rmw_seq_options(PorMode::kNone))
            .reachable;
    const auto expect_finals =
        collect_final_executions(p, rmw_seq_options(PorMode::kNone));
    const auto expect_outcomes =
        enumerate_outcomes(p, rmw_seq_options(PorMode::kNone)).outcomes;
    ASSERT_FALSE(expect_finals.empty()) << parsed.name;
    for (const Mode& m : kModes) {
      if (m.parallel) {
        EXPECT_EQ(
            check_reachable_parallel(p, parsed.condition, rmw_par_options(m.por))
                .reachable,
            expect_verdict)
            << parsed.name << " under " << m.name;
        EXPECT_EQ(collect_final_executions_parallel(p, rmw_par_options(m.por)),
                  expect_finals)
            << parsed.name << " under " << m.name;
        EXPECT_EQ(enumerate_outcomes_parallel(p, rmw_par_options(m.por)).outcomes,
                  expect_outcomes)
            << parsed.name << " under " << m.name;
      } else {
        EXPECT_EQ(
            check_reachable(p, parsed.condition, rmw_seq_options(m.por))
                .reachable,
            expect_verdict)
            << parsed.name << " under " << m.name;
        EXPECT_EQ(collect_final_executions(p, rmw_seq_options(m.por)),
                  expect_finals)
            << parsed.name << " under " << m.name;
        EXPECT_EQ(enumerate_outcomes(p, rmw_seq_options(m.por)).outcomes,
                  expect_outcomes)
            << parsed.name << " under " << m.name;
      }
    }
  }
}

TEST(RmwNondeterminism, ZeroSleepBlockedForOptimalModes) {
  // The tentpole acceptance bar on the RMW family: no execution ever
  // starts only to die in the sleep filter — sequentially and in
  // parallel, for both optimal flavours.
  for (const char* source : kRmwFamily) {
    const auto parsed = lang::parse_litmus(source);
    for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
      const auto seq = explore(parsed.program, rmw_seq_options(por), {});
      EXPECT_EQ(seq.stats.sleep_blocked, 0u)
          << parsed.name << " under sequential " << por_mode_name(por);
      const auto par =
          enumerate_outcomes_parallel(parsed.program, rmw_par_options(por));
      EXPECT_EQ(par.stats.sleep_blocked, 0u)
          << parsed.name << " under parallel " << por_mode_name(por);
    }
  }
}

TEST(RmwNondeterminism, ParallelSiblingMergeKeepsAllExecutions) {
  // Regression pin for the first-writer-wins sleep_store.try_emplace merge
  // the optimal engine's parallel path used to carry: when two workers
  // reached the same shared node, the later sibling's (smaller) pruning
  // context was silently dropped, which showed up as sleep-blocked
  // restarts — 20 sequential / 26 parallel on rmw_tas_lock under the
  // parsimonious flavour — and, for prescribed wakeup subtrees, lost
  // executions. With exploration keyed on reads-from choices the store is
  // gone; repeated parallel runs (work-stealing varies the arrival order)
  // must stay at zero sleep_blocked with the full final-state set.
  const auto parsed = lang::parse_litmus(kRmwFamily[0]);  // rmw_tas_lock
  const auto expect =
      collect_final_executions(parsed.program, rmw_seq_options(PorMode::kNone));
  for (int round = 0; round < 4; ++round) {
    for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
      const auto stats =
          enumerate_outcomes_parallel(parsed.program, rmw_par_options(por))
              .stats;
      EXPECT_EQ(stats.sleep_blocked, 0u)
          << "round " << round << " under " << por_mode_name(por);
      EXPECT_EQ(
          collect_final_executions_parallel(parsed.program, rmw_par_options(por)),
          expect)
          << "round " << round << " under " << por_mode_name(por);
    }
    // The non-optimal parallel explorer still carries a per-state sleep
    // store; its intersect-and-revisit merge (never first-writer-wins)
    // must keep the same final set on the same workload.
    EXPECT_EQ(collect_final_executions_parallel(
                  parsed.program, rmw_par_options(PorMode::kSleepSets)),
              expect)
        << "round " << round << " under sleep sets";
  }
}

TEST(RmwNondeterminism, OptimalTransitionsStayBelowSourceSets) {
  // On the whole family the wakeup-tree engines visit strictly fewer
  // transitions than stateless source-set DPOR (8490 vs 15748 on the TAS
  // lock at loop_bound 2) — the reads-from keying pays for itself exactly
  // where RMW data nondeterminism used to force sleep-blocked restarts.
  for (const char* source : kRmwFamily) {
    const auto parsed = lang::parse_litmus(source);
    const auto src =
        explore(parsed.program, rmw_seq_options(PorMode::kSourceSets), {});
    for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
      const auto opt = explore(parsed.program, rmw_seq_options(por), {});
      EXPECT_LE(opt.stats.transitions, src.stats.transitions)
          << parsed.name << " under " << por_mode_name(por);
    }
  }
}

// --- Exact-counter golden table for the tree engines ---------------------------
//
// Every deterministic counter of the sequential tree engines, pinned per
// (program, mode) over the litmus catalogue and the RMW family above. A
// refactoring of the engines must leave all of them unchanged; a deliberate
// behaviour change re-baselines the table (regenerate it from the same
// explore() calls and review the diff row by row).

struct GoldenRow {
  const char* program;
  const char* mode;
  std::size_t states, transitions, backtracks, por_pruned, sleep_blocked,
      redundant_transitions, complete_traces, finals, merged,
      enum_threads_reused, enum_threads_recomputed;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    // program, mode, states, transitions, backtracks, por_pruned,
    // sleep_blocked, redundant, complete_traces, finals, merged,
    // enum_reused, enum_recomputed
    {"SB", "source", 13, 24, 3, 0, 0, 8, 12, 4, 12, 22, 28},
    {"SB", "source-sleep", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB", "optimal", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB", "optimal-parsimonious", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB_ra", "source", 13, 24, 3, 0, 0, 8, 12, 4, 12, 22, 28},
    {"SB_ra", "source-sleep", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB_ra", "optimal", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB_ra", "optimal-parsimonious", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"MP", "source", 13, 20, 3, 0, 0, 5, 9, 4, 8, 18, 24},
    {"MP", "source-sleep", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP", "optimal", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP", "optimal-parsimonious", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_ra", "source", 12, 19, 3, 0, 0, 5, 8, 3, 8, 17, 23},
    {"MP_ra", "source-sleep", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"MP_ra", "optimal", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"MP_ra", "optimal-parsimonious", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"MP_rel_rlx", "source", 13, 20, 3, 0, 0, 5, 9, 4, 8, 18, 24},
    {"MP_rel_rlx", "source-sleep", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_rel_rlx", "optimal", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_rel_rlx", "optimal-parsimonious", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_rlx_acq", "source", 13, 20, 3, 0, 0, 5, 9, 4, 8, 18, 24},
    {"MP_rlx_acq", "source-sleep", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_rlx_acq", "optimal", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_rlx_acq", "optimal-parsimonious", 13, 16, 2, 1, 0, 2, 7, 4, 4, 15, 19},
    {"MP_swap", "source", 12, 19, 3, 0, 0, 5, 8, 3, 8, 17, 23},
    {"MP_swap", "source-sleep", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"MP_swap", "optimal", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"MP_swap", "optimal-parsimonious", 12, 15, 2, 1, 0, 2, 6, 3, 4, 14, 18},
    {"LB", "source", 13, 18, 3, 0, 0, 3, 6, 3, 6, 16, 22},
    {"LB", "source-sleep", 13, 15, 2, 1, 0, 1, 5, 3, 3, 13, 19},
    {"LB", "optimal", 13, 15, 2, 1, 0, 1, 5, 3, 3, 13, 19},
    {"LB", "optimal-parsimonious", 13, 15, 2, 1, 0, 1, 5, 3, 3, 13, 19},
    {"CoWW", "source", 19, 39, 6, 0, 0, 14, 20, 6, 21, 33, 47},
    {"CoWW", "source-sleep", 19, 39, 6, 0, 0, 14, 20, 6, 21, 33, 47},
    {"CoWW", "optimal", 19, 39, 10, 0, 0, 14, 20, 6, 21, 33, 47},
    {"CoWW", "optimal-parsimonious", 19, 39, 10, 0, 0, 14, 20, 6, 21, 33, 47},
    {"CoRR2", "source", 273, 3950, 297, 0, 0, 3410, 2400, 72, 3678, 11256, 4548},
    {"CoRR2", "source-sleep", 273, 2556, 121, 102, 0, 2050, 1522, 72, 2284, 7306, 2922},
    {"CoRR2", "optimal", 273, 2556, 239, 102, 0, 2098, 1522, 72, 2284, 7306, 2922},
    {"CoRR2", "optimal-parsimonious", 273, 2556, 239, 102, 0, 2098, 1522, 72, 2284, 7306, 2922},
    {"IRIW_ra", "source", 86, 654, 90, 0, 0, 515, 322, 16, 569, 1887, 733},
    {"IRIW_ra", "source-sleep", 78, 185, 17, 45, 1, 81, 77, 16, 108, 536, 208},
    {"IRIW_ra", "optimal", 84, 220, 26, 55, 0, 108, 93, 16, 137, 636, 248},
    {"IRIW_ra", "optimal-parsimonious", 79, 184, 20, 38, 0, 85, 79, 16, 106, 532, 208},
    {"W2+2W", "source", 14, 30, 3, 0, 0, 10, 16, 4, 17, 26, 36},
    {"W2+2W", "source-sleep", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"W2+2W", "optimal", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"W2+2W", "optimal-parsimonious", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"SwapAtomicity", "source", 5, 4, 1, 0, 0, 0, 2, 2, 0, 2, 8},
    {"SwapAtomicity", "source-sleep", 5, 4, 1, 0, 0, 0, 2, 2, 0, 2, 8},
    {"SwapAtomicity", "optimal", 5, 4, 1, 0, 0, 0, 2, 2, 0, 2, 8},
    {"SwapAtomicity", "optimal-parsimonious", 5, 4, 1, 0, 0, 0, 2, 2, 0, 2, 8},
    {"WRC_ra", "source", 33, 98, 17, 0, 0, 50, 44, 7, 66, 182, 115},
    {"WRC_ra", "source-sleep", 31, 55, 7, 8, 0, 16, 22, 7, 25, 103, 65},
    {"WRC_ra", "optimal", 32, 55, 7, 8, 0, 20, 22, 7, 24, 103, 65},
    {"WRC_ra", "optimal-parsimonious", 32, 55, 7, 7, 0, 19, 22, 7, 24, 103, 65},
    {"S", "source", 13, 21, 3, 0, 0, 5, 9, 3, 9, 18, 26},
    {"S", "source-sleep", 13, 17, 2, 1, 0, 2, 7, 3, 5, 15, 21},
    {"S", "optimal", 13, 17, 2, 1, 0, 2, 7, 3, 5, 15, 21},
    {"S", "optimal-parsimonious", 13, 17, 2, 1, 0, 2, 7, 3, 5, 15, 21},
    {"CoRW1", "source", 3, 2, 0, 0, 0, 0, 1, 1, 0, 0, 3},
    {"CoRW1", "source-sleep", 3, 2, 0, 0, 0, 0, 1, 1, 0, 0, 3},
    {"CoRW1", "optimal", 3, 2, 0, 0, 0, 0, 1, 1, 0, 0, 3},
    {"CoRW1", "optimal-parsimonious", 3, 2, 0, 0, 0, 0, 1, 1, 0, 0, 3},
    {"CoWR", "source", 9, 15, 2, 0, 0, 3, 8, 3, 7, 11, 21},
    {"CoWR", "source-sleep", 9, 15, 2, 0, 0, 3, 8, 3, 7, 11, 21},
    {"CoWR", "optimal", 9, 15, 3, 0, 0, 3, 8, 3, 7, 11, 21},
    {"CoWR", "optimal-parsimonious", 9, 15, 3, 0, 0, 3, 8, 3, 7, 11, 21},
    {"ISA2", "source", 43, 117, 17, 0, 0, 64, 47, 7, 75, 221, 133},
    {"ISA2", "source-sleep", 36, 61, 7, 10, 0, 18, 22, 7, 26, 116, 70},
    {"ISA2", "optimal", 36, 59, 7, 6, 0, 23, 22, 7, 24, 112, 68},
    {"ISA2", "optimal-parsimonious", 36, 59, 7, 6, 0, 23, 22, 7, 24, 112, 68},
    {"SB_rmw", "source", 13, 24, 3, 0, 0, 8, 12, 4, 12, 22, 28},
    {"SB_rmw", "source-sleep", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB_rmw", "optimal", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"SB_rmw", "optimal-parsimonious", 13, 17, 2, 1, 0, 2, 8, 4, 5, 16, 20},
    {"W2+2W_ra", "source", 14, 30, 3, 0, 0, 10, 16, 4, 17, 26, 36},
    {"W2+2W_ra", "source-sleep", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"W2+2W_ra", "optimal", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"W2+2W_ra", "optimal-parsimonious", 14, 23, 2, 1, 0, 4, 12, 4, 10, 20, 28},
    {"WRC_rlx", "source", 34, 99, 17, 0, 0, 50, 45, 8, 66, 184, 116},
    {"WRC_rlx", "source-sleep", 32, 56, 7, 8, 0, 16, 23, 8, 25, 105, 66},
    {"WRC_rlx", "optimal", 33, 56, 7, 8, 0, 20, 23, 8, 24, 105, 66},
    {"WRC_rlx", "optimal-parsimonious", 33, 56, 7, 7, 0, 19, 23, 8, 24, 105, 66},
    {"rmw_tas_lock", "source", 1932, 15748, 1783, 0, 0, 13223, 192, 42, 13817, 27148, 20099},
    {"rmw_tas_lock", "source-sleep", 1890, 8576, 780, 386, 19, 6219, 138, 42, 6687, 15113, 10618},
    {"rmw_tas_lock", "optimal", 1804, 8490, 2624, 300, 0, 6244, 138, 42, 6687, 14976, 10497},
    {"rmw_tas_lock", "optimal-parsimonious", 1804, 8490, 2624, 300, 0, 6244, 138, 42, 6687, 14976, 10497},
    {"rmw_fadd_race", "source", 119, 540, 125, 0, 0, 378, 204, 36, 422, 858, 765},
    {"rmw_fadd_race", "source-sleep", 119, 289, 53, 17, 0, 137, 108, 36, 171, 482, 388},
    {"rmw_fadd_race", "optimal", 119, 289, 116, 17, 0, 150, 108, 36, 171, 482, 388},
    {"rmw_fadd_race", "optimal-parsimonious", 119, 289, 116, 17, 0, 150, 108, 36, 171, 482, 388},
    {"rmw_three_swappers", "source", 145, 319, 47, 0, 0, 116, 120, 36, 175, 578, 382},
    {"rmw_three_swappers", "source-sleep", 145, 283, 38, 12, 0, 91, 108, 36, 139, 506, 346},
    {"rmw_three_swappers", "optimal", 145, 283, 55, 12, 0, 92, 108, 36, 139, 506, 346},
    {"rmw_three_swappers", "optimal-parsimonious", 145, 283, 55, 12, 0, 92, 108, 36, 139, 506, 346},
    {"rmw_swap_chain", "source", 92, 351, 64, 0, 0, 227, 154, 23, 260, 588, 468},
    {"rmw_swap_chain", "source-sleep", 92, 186, 27, 19, 0, 65, 74, 23, 95, 310, 251},
    {"rmw_swap_chain", "optimal", 92, 186, 68, 19, 0, 68, 74, 23, 95, 310, 251},
    {"rmw_swap_chain", "optimal-parsimonious", 92, 186, 68, 19, 0, 68, 74, 23, 95, 310, 251},
};
// clang-format on

TEST(GoldenCounters, TreeEnginesMatchPinnedTable) {
  struct Case {
    std::string name;
    lang::ParsedLitmus parsed;
    ExploreOptions options;
  };
  std::vector<Case> cases;
  for (const auto& test : litmus::catalog()) {
    cases.push_back({test.name, lang::parse_litmus(test.source), {}});
  }
  for (const char* source : kRmwFamily) {
    lang::ParsedLitmus parsed = lang::parse_litmus(source);
    std::string name = parsed.name;
    cases.push_back({std::move(name), std::move(parsed), rmw_seq_options({})});
  }
  std::size_t checked = 0;
  for (const Case& c : cases) {
    for (PorMode por : kTreeModes) {
      const GoldenRow* row = nullptr;
      for (const GoldenRow& g : kGolden) {
        if (c.name == g.program && std::string(por_mode_name(por)) == g.mode) {
          row = &g;
        }
      }
      const std::string where = c.name + " under " + por_mode_name(por);
      ASSERT_NE(row, nullptr) << where;
      ExploreOptions o = c.options;
      o.por = por;
      const ExploreStats s = explore(c.parsed.program, o, {}).stats;
      EXPECT_EQ(s.states, row->states) << where;
      EXPECT_EQ(s.transitions, row->transitions) << where;
      EXPECT_EQ(s.backtracks, row->backtracks) << where;
      EXPECT_EQ(s.por_pruned, row->por_pruned) << where;
      EXPECT_EQ(s.sleep_blocked, row->sleep_blocked) << where;
      EXPECT_EQ(s.redundant_transitions, row->redundant_transitions) << where;
      EXPECT_EQ(s.complete_traces, row->complete_traces) << where;
      EXPECT_EQ(s.finals, row->finals) << where;
      EXPECT_EQ(s.merged, row->merged) << where;
      EXPECT_EQ(s.enum_threads_reused, row->enum_threads_reused) << where;
      EXPECT_EQ(s.enum_threads_recomputed, row->enum_threads_recomputed)
          << where;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

// --- Exact-counter golden table for the race check ----------------------------
//
// check_race_free observes every transition (Visitor::on_transition), so it
// pins the stateful explorer's transition-observing path: the verdict, the
// reported race, the trace length and the deterministic counters of the
// sequential full and sleep-set runs over the catalogue plus the
// racy/raceless table. Regenerate it from the same check_race_free calls
// on a deliberate behaviour change and review the diff row by row.

struct RaceGoldenRow {
  const char* program;
  const char* mode;
  bool race_free;
  const char* race;
  std::size_t trace_len, states, transitions, merged, por_pruned, finals,
      max_depth;
};

// clang-format off
constexpr RaceGoldenRow kRaceGolden[] = {
    // program, mode, race_free, race, trace_len, states, transitions,
    // merged, por_pruned, finals, max_depth
    {"SB", "none", true, "", 0, 45, 76, 32, 0, 4, 9},
    {"SB", "sleep", true, "", 0, 45, 57, 8, 30, 4, 9},
    {"SB_ra", "none", true, "", 0, 45, 76, 32, 0, 4, 9},
    {"SB_ra", "sleep", true, "", 0, 45, 57, 8, 30, 4, 9},
    {"MP", "none", true, "", 0, 37, 55, 19, 0, 4, 9},
    {"MP", "sleep", true, "", 0, 37, 42, 4, 17, 4, 9},
    {"MP_ra", "none", true, "", 0, 35, 53, 19, 0, 3, 9},
    {"MP_ra", "sleep", true, "", 0, 35, 40, 4, 17, 3, 9},
    {"MP_rel_rlx", "none", true, "", 0, 37, 55, 19, 0, 4, 9},
    {"MP_rel_rlx", "sleep", true, "", 0, 37, 42, 4, 17, 4, 9},
    {"MP_rlx_acq", "none", true, "", 0, 37, 55, 19, 0, 4, 9},
    {"MP_rlx_acq", "sleep", true, "", 0, 37, 42, 4, 17, 4, 9},
    {"MP_swap", "none", true, "", 0, 35, 53, 19, 0, 3, 9},
    {"MP_swap", "sleep", true, "", 0, 35, 40, 4, 17, 3, 9},
    {"LB", "none", true, "", 0, 33, 48, 16, 0, 3, 9},
    {"LB", "sleep", true, "", 0, 33, 37, 2, 14, 3, 9},
    {"CoWW", "none", true, "", 0, 54, 82, 29, 0, 6, 9},
    {"CoWW", "sleep", true, "", 0, 54, 64, 9, 22, 6, 9},
    {"CoRR2", "none", true, "", 0, 1342, 3280, 1939, 0, 72, 13},
    {"CoRR2", "sleep", true, "", 0, 1342, 2411, 774, 1629, 72, 13},
    {"IRIW_ra", "none", true, "", 0, 437, 1042, 606, 0, 16, 13},
    {"IRIW_ra", "sleep", true, "", 0, 437, 572, 96, 572, 16, 13},
    {"W2+2W", "none", true, "", 0, 23, 38, 16, 0, 4, 7},
    {"W2+2W", "sleep", true, "", 0, 23, 32, 6, 12, 4, 7},
    {"SwapAtomicity", "none", true, "", 0, 5, 4, 0, 0, 2, 3},
    {"SwapAtomicity", "sleep", true, "", 0, 5, 4, 0, 0, 2, 3},
    {"WRC_ra", "none", true, "", 0, 119, 228, 110, 0, 7, 11},
    {"WRC_ra", "sleep", true, "", 0, 119, 143, 18, 100, 7, 11},
    {"S", "none", true, "", 0, 27, 41, 15, 0, 3, 8},
    {"S", "sleep", true, "", 0, 27, 33, 3, 12, 3, 8},
    {"CoRW1", "none", true, "", 0, 5, 4, 0, 0, 1, 5},
    {"CoRW1", "sleep", true, "", 0, 5, 4, 0, 0, 1, 5},
    {"CoWR", "none", true, "", 0, 16, 23, 8, 0, 3, 6},
    {"CoWR", "sleep", true, "", 0, 16, 23, 4, 4, 3, 6},
    {"ISA2", "none", true, "", 0, 213, 470, 258, 0, 7, 13},
    {"ISA2", "sleep", true, "", 0, 213, 263, 32, 254, 7, 13},
    {"SB_rmw", "none", true, "", 0, 45, 76, 32, 0, 4, 9},
    {"SB_rmw", "sleep", true, "", 0, 45, 57, 8, 30, 4, 9},
    {"W2+2W_ra", "none", true, "", 0, 23, 38, 16, 0, 4, 7},
    {"W2+2W_ra", "sleep", true, "", 0, 23, 32, 6, 12, 4, 7},
    {"WRC_rlx", "none", true, "", 0, 121, 230, 110, 0, 8, 11},
    {"WRC_rlx", "sleep", true, "", 0, 121, 145, 18, 100, 8, 11},
    {"na_race", "none", false, "data race between e1:wrNA(d, 1)@1 and e2:rdNA(d, 0)@2", 2, 2, 2, 0, 0, 0, 2},
    {"na_race", "sleep", false, "data race between e1:wrNA(d, 1)@1 and e2:rdNA(d, 0)@2", 2, 2, 2, 0, 0, 0, 2},
    {"na_mp_ra_guarded", "none", true, "", 0, 26, 37, 12, 0, 2, 10},
    {"na_mp_ra_guarded", "sleep", true, "", 0, 26, 26, 1, 11, 2, 10},
    {"na_mp_rlx_races", "none", false, "data race between e2:wrNA(d, 5)@1 and e5:rdNA(d, 0)@2", 8, 12, 12, 0, 0, 1, 8},
    {"na_mp_rlx_races", "sleep", false, "data race between e2:wrNA(d, 5)@1 and e5:rdNA(d, 0)@2", 8, 12, 12, 0, 0, 1, 8},
    {"na_disjoint_vars", "none", true, "", 0, 4, 4, 1, 0, 1, 3},
    {"na_disjoint_vars", "sleep", true, "", 0, 4, 3, 0, 1, 1, 3},
    {"atomic_contention", "none", true, "", 0, 80, 158, 79, 0, 12, 7},
    {"atomic_contention", "sleep", true, "", 0, 80, 123, 40, 47, 12, 7},
    {"na_ww_race", "none", false, "data race between e1:wrNA(x, 1)@1 and e2:wrNA(x, 2)@2", 2, 2, 2, 0, 0, 0, 2},
    {"na_ww_race", "sleep", false, "data race between e1:wrNA(x, 1)@1 and e2:wrNA(x, 2)@2", 2, 2, 2, 0, 0, 0, 2},
};
// clang-format on

TEST(GoldenCounters, RaceCheckMatchesPinnedTable) {
  std::vector<std::pair<std::string, lang::Program>> programs;
  for (const auto& test : litmus::catalog()) {
    programs.emplace_back(test.name, lang::parse_litmus(test.source).program);
  }
  for (auto& entry : race_table()) {
    programs.emplace_back(entry.name, std::move(entry.program));
  }
  std::size_t checked = 0;
  for (const auto& [name, program] : programs) {
    for (PorMode por : {PorMode::kNone, PorMode::kSleepSets}) {
      const RaceGoldenRow* row = nullptr;
      for (const RaceGoldenRow& g : kRaceGolden) {
        if (name == g.program && std::string(por_mode_name(por)) == g.mode) {
          row = &g;
        }
      }
      const std::string where = name + " under " + por_mode_name(por);
      ASSERT_NE(row, nullptr) << where;
      const RaceResult r = check_race_free(program, seq_options(por));
      EXPECT_EQ(r.race_free, row->race_free) << where;
      EXPECT_EQ(r.race, row->race) << where;
      EXPECT_EQ(r.trace.size(), row->trace_len) << where;
      EXPECT_EQ(r.stats.states, row->states) << where;
      EXPECT_EQ(r.stats.transitions, row->transitions) << where;
      EXPECT_EQ(r.stats.merged, row->merged) << where;
      EXPECT_EQ(r.stats.por_pruned, row->por_pruned) << where;
      EXPECT_EQ(r.stats.finals, row->finals) << where;
      EXPECT_EQ(r.stats.max_depth, row->max_depth) << where;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kRaceGolden));
}

TEST(DporReduction, ConflictingWritersStillCoverAllFinals) {
  // Same-variable writers conflict pairwise: DPOR must backtrack into
  // every order (3! mo outcomes of the writes are all distinct).
  ProgramBuilder b;
  auto x = b.var("x", 0);
  b.thread({assign(x, 1)});
  b.thread({assign(x, 2)});
  b.thread({assign(x, 3)});
  const lang::Program p = std::move(b).build();

  const auto full = enumerate_outcomes(p, seq_options(PorMode::kNone));
  const auto dpor = enumerate_outcomes(p, seq_options(kDefaultPor));
  EXPECT_EQ(full.outcomes, dpor.outcomes);
  EXPECT_GT(dpor.stats.backtracks, 0u);
  for (PorMode por : {PorMode::kOptimal, PorMode::kOptimalParsimonious}) {
    const auto opt = enumerate_outcomes(p, seq_options(por));
    EXPECT_EQ(full.outcomes, opt.outcomes) << por_mode_name(por);
    EXPECT_GT(opt.stats.backtracks, 0u) << por_mode_name(por);
    EXPECT_EQ(opt.stats.sleep_blocked, 0u) << por_mode_name(por);
  }
}

}  // namespace
}  // namespace rc11::mc
