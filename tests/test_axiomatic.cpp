// Machine-checked metatheory (Section 4.2, Appendix C), as parameterized
// property tests over a family of programs:
//
//  * Theorem 4.4 (soundness): every configuration reachable via ==>_RA has
//    a valid execution.
//  * Theorem 4.8 (completeness): the set of valid final executions produced
//    by the axiomatic semantics equals the set reached operationally.
//  * Theorem C.15 (the paper's Memalloy check): Definition-4.2 Coherence
//    agrees with weak canonical RAR consistency on every candidate
//    execution.
#include <gtest/gtest.h>

#include "axiomatic/equivalence.hpp"
#include "litmus/catalog.hpp"

namespace rc11::axiomatic {
namespace {

/// Program sources used for the property sweeps: the loop-free litmus
/// catalogue entries (loops would need bounding for the axiomatic side).
std::vector<std::string> property_programs() {
  return {
      "SB",     "MP",   "MP_ra",         "MP_rel_rlx", "MP_rlx_acq",
      "MP_swap", "LB",  "CoWW",          "W2+2W",      "SwapAtomicity",
      "WRC_rlx",
  };
}

class MetatheoryTest : public ::testing::TestWithParam<std::string> {
 protected:
  lang::Program program() {
    return lang::parse_litmus(litmus::find_test(GetParam()).source).program;
  }
};

TEST_P(MetatheoryTest, Theorem44Soundness) {
  const SoundnessResult r = check_soundness(program());
  EXPECT_TRUE(r.sound) << "violated: " << r.violation << "\n"
                       << r.trace.to_string();
  EXPECT_GT(r.states_checked, 0u);
}

TEST_P(MetatheoryTest, Theorem48Completeness) {
  const CompletenessResult r = check_completeness(program());
  EXPECT_TRUE(r.equivalent())
      << "operational=" << r.operational_count
      << " axiomatic=" << r.axiomatic_count
      << " only_op=" << r.only_operational.size()
      << " only_ax=" << r.only_axiomatic.size();
  EXPECT_GT(r.operational_count, 0u);
}

TEST_P(MetatheoryTest, TheoremC15CoherenceAgreement) {
  const AgreementResult r = check_coherence_agreement(program());
  EXPECT_TRUE(r.agree) << "disagreements: " << r.disagreements << "\n"
                       << r.first_disagreement;
  EXPECT_GT(r.candidates_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, MetatheoryTest, ::testing::ValuesIn(property_programs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Targeted checks -----------------------------------------------------------

TEST(Completeness, LbHasNoValidThinAirExecution) {
  // For LB, the axiomatic semantics enumerates candidates with both reads
  // returning 1, but every such candidate is rejected (sb u rf cycle), and
  // the operational semantics never produces it: both sides agree on the
  // final-execution set.
  const auto prog =
      lang::parse_litmus(litmus::find_test("LB").source).program;
  const CompletenessResult r = check_completeness(prog);
  EXPECT_TRUE(r.equivalent());
  // The enumeration saw strictly more candidates than valid executions
  // (the thin-air ones were filtered).
  EXPECT_GT(r.enumerate_stats.candidates, r.axiomatic_count);
}

TEST(Completeness, TruncatedEnumerationIsNeverEquivalent) {
  // Capped at one pre-execution, the axiomatic side sees only part of the
  // candidate space. On CoRW1 the partial key set still happens to match
  // the operational one, so only the truncation flag stops equivalent()
  // from vouching for an enumeration that never finished.
  const auto prog =
      lang::parse_litmus(litmus::find_test("CoRW1").source).program;
  const CompletenessResult capped =
      check_completeness(prog, {}, EnumerateOptions{.max_pre_executions = 1});
  EXPECT_TRUE(capped.enumerate_stats.truncated);
  EXPECT_TRUE(capped.truncated);
  EXPECT_TRUE(capped.only_operational.empty());
  EXPECT_TRUE(capped.only_axiomatic.empty());
  EXPECT_FALSE(capped.equivalent());
  // Uncapped, the same program is equivalent.
  const CompletenessResult full = check_completeness(prog);
  EXPECT_FALSE(full.truncated);
  EXPECT_TRUE(full.equivalent());
}

TEST(Soundness, CountsEveryReachableState) {
  const auto prog =
      lang::parse_litmus(litmus::find_test("SB").source).program;
  const SoundnessResult s = check_soundness(prog);
  mc::ExploreResult plain = mc::explore(prog, {}, {});
  EXPECT_EQ(s.states_checked, plain.stats.states);
}

TEST(Enumerate, StatsAreConsistent) {
  const auto prog =
      lang::parse_litmus(litmus::find_test("MP_ra").source).program;
  const ValidExecutions v = enumerate_valid_executions(prog);
  EXPECT_GT(v.stats.pre_executions, 0u);
  EXPECT_GE(v.stats.candidates, v.stats.valid);
  EXPECT_EQ(v.stats.valid >= v.keys.size(), true);
  EXPECT_FALSE(v.stats.truncated);
}

TEST(Enumerate, CandidateCallbackCanStop) {
  const auto prog =
      lang::parse_litmus(litmus::find_test("SB").source).program;
  std::size_t seen = 0;
  EnumerateOptions opts;
  enumerate_candidates(prog, opts, [&](const c11::Execution&) {
    return ++seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(Enumerate, RespectsCandidateCap) {
  const auto prog =
      lang::parse_litmus(litmus::find_test("SB").source).program;
  EnumerateOptions opts;
  opts.max_candidates = 2;
  std::size_t seen = 0;
  const EnumerateStats stats = enumerate_candidates(
      prog, opts, [&](const c11::Execution&) {
        ++seen;
        return true;
      });
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(seen, 2u);
}

// --- Exact-counter golden table for the enumerator ---------------------------
//
// The pre-execution search and the rf/mo candidate construction, pinned per
// catalogue program. Regenerate from the same enumerate_valid_executions
// calls on a deliberate behaviour change and review the diff row by row.

struct EnumerateGoldenRow {
  const char* program;
  std::size_t pre_executions, candidates, valid;
};

constexpr EnumerateGoldenRow kEnumerateGolden[] = {
    // program, pre_executions, candidates, valid
    {"SB", 4, 4, 4},
    {"SB_ra", 4, 4, 4},
    {"MP", 9, 4, 4},
    {"MP_ra", 9, 4, 3},
    {"MP_rel_rlx", 9, 4, 4},
    {"MP_rlx_acq", 9, 4, 4},
    {"MP_swap", 27, 4, 3},
    {"LB", 4, 4, 3},
    {"CoWW", 9, 18, 6},
    {"CoRR2", 81, 162, 72},
    {"IRIW_ra", 16, 16, 16},
    {"W2+2W", 1, 4, 4},
    {"SwapAtomicity", 9, 8, 2},
    {"WRC_ra", 8, 8, 7},
    {"S", 3, 4, 3},
    {"CoRW1", 2, 2, 1},
    {"CoWR", 3, 6, 3},
    {"ISA2", 8, 8, 7},
    {"SB_rmw", 16, 4, 4},
    {"W2+2W_ra", 1, 4, 4},
    {"WRC_rlx", 8, 8, 8},
};

TEST(GoldenCounters, CandidateEnumerationMatchesPinnedTable) {
  std::size_t checked = 0;
  for (const auto& test : litmus::catalog()) {
    const EnumerateGoldenRow* row = nullptr;
    for (const EnumerateGoldenRow& g : kEnumerateGolden) {
      if (test.name == g.program) row = &g;
    }
    ASSERT_NE(row, nullptr) << test.name;
    const ValidExecutions v =
        enumerate_valid_executions(lang::parse_litmus(test.source).program);
    EXPECT_EQ(v.stats.pre_executions, row->pre_executions) << test.name;
    EXPECT_EQ(v.stats.candidates, row->candidates) << test.name;
    EXPECT_EQ(v.stats.valid, row->valid) << test.name;
    EXPECT_FALSE(v.stats.truncated) << test.name;
    ++checked;
  }
  EXPECT_EQ(checked, std::size(kEnumerateGolden));
}

}  // namespace
}  // namespace rc11::axiomatic
