// Dense-vs-sparse representation equivalence for the hybrid Bitset /
// Relation rows (util/bitset.hpp). The chunked sparse form must be
// *observationally identical* to the dense form: same membership, pairs,
// hashes, closures, restrictions and compositions for any op sequence.
// Two layers:
//
//   * a seeded randomized differential — the same mutation sequence is
//     replayed against a dense-pinned and a sparse-pinned Relation and
//     every queryable surface is compared;
//   * an end-to-end cross-check — litmus-catalogue programs are explored
//     with every row forced sparse, and the final-execution fingerprint
//     sets, outcome sets and verdicts must match the default (hybrid)
//     representation run.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <set>
#include <vector>

#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "mc/checker.hpp"
#include "util/relation.hpp"

namespace rc11 {
namespace {

/// Pins the global representation threshold for a scope.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t words)
      : saved_(util::Bitset::sparse_threshold_words()) {
    util::Bitset::set_sparse_threshold_words(words);
  }
  ~ThresholdGuard() { util::Bitset::set_sparse_threshold_words(saved_); }
  ThresholdGuard(const ThresholdGuard&) = delete;
  ThresholdGuard& operator=(const ThresholdGuard&) = delete;

 private:
  std::size_t saved_;
};

constexpr std::size_t kForceDense = ~std::size_t{0} >> 1;
constexpr std::size_t kForceSparse = 0;

/// Drops the last element. Without a maintained inverse the pairs into it
/// are removed first by a scan; with one, pop_back finds them itself.
void pop_last(util::Relation& r) {
  const std::size_t e = r.size() - 1;
  if (!r.inverse_enabled()) {
    for (std::size_t a = 0; a < r.size(); ++a) r.remove(a, e);
  }
  r.pop_back();
}

/// One randomized mutation applied identically to both relations.
void mutate(util::Relation& r, std::mt19937& rng) {
  const std::size_t n = r.size();
  switch (rng() % 8) {
    case 0:
    case 1:
    case 2: {  // add dominates: relations in the engine mostly grow
      if (n == 0) break;
      r.add(rng() % n, rng() % n);
      break;
    }
    case 3: {
      if (n == 0) break;
      r.remove(rng() % n, rng() % n);
      break;
    }
    case 4: {  // grow (the append-one-event pattern)
      const std::size_t k = 1 + rng() % 3;
      for (std::size_t i = 0; i < k; ++i) r.push_back();
      break;
    }
    case 5: {  // occasional shrink: rows keep their widths past the universe
      if (n <= 4) break;
      const std::size_t k = 1 + rng() % 3;
      for (std::size_t i = 0; i < k; ++i) pop_last(r);
      break;
    }
    case 6: {  // batch column write (the hb/eco push_event kernel)
      if (n == 0) break;
      util::Bitset as(n);
      for (std::size_t k = 0; k < n / 3 + 1; ++k) as.set(rng() % n);
      r.add_to_column(rng() % n, as);
      break;
    }
    case 7: {  // batch row write
      if (n == 0) break;
      util::Bitset bs(n);
      for (std::size_t k = 0; k < n / 3 + 1; ++k) bs.set(rng() % n);
      r.add_to_row(rng() % n, bs);
      break;
    }
  }
}

/// Everything observable about r, computed under the *current* threshold
/// (closures and restrictions build fresh rows, so running this inside a
/// ThresholdGuard exercises the mixed dense/sparse kernel paths too).
struct Observation {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t pair_count = 0;
  std::size_t hash = 0;
  bool acyclic = false;
  std::vector<std::pair<std::size_t, std::size_t>> closure_pairs;
  std::vector<std::pair<std::size_t, std::size_t>> restricted_pairs;
  std::vector<std::pair<std::size_t, std::size_t>> inv_compose_pairs;
  std::vector<std::size_t> reach;
};

Observation observe(const util::Relation& r) {
  Observation o;
  o.pairs = r.pairs();
  o.pair_count = r.pair_count();
  o.hash = r.hash();
  o.acyclic = r.is_acyclic();
  o.closure_pairs = r.transitive_closure().pairs();
  const std::size_t n = r.size();
  util::Bitset evens(n);
  for (std::size_t i = 0; i < n; i += 2) evens.set(i);
  o.restricted_pairs = r.restrict_to(evens).pairs();
  o.inv_compose_pairs = r.inverse_compose(r).pairs();
  if (n > 0) {
    r.reachable_from(0).for_each(
        [&](std::size_t v) { o.reach.push_back(v); });
  }
  return o;
}

bool operator==(const Observation& a, const Observation& b) {
  return a.pairs == b.pairs && a.pair_count == b.pair_count &&
         a.hash == b.hash && a.acyclic == b.acyclic &&
         a.closure_pairs == b.closure_pairs &&
         a.restricted_pairs == b.restricted_pairs &&
         a.inv_compose_pairs == b.inv_compose_pairs && a.reach == b.reach;
}

TEST(RelationSparse, RandomizedOpSequencesMatchDense) {
  constexpr unsigned kSeeds = 20;
  constexpr std::size_t kOps = 120;
  for (unsigned seed = 1; seed <= kSeeds; ++seed) {
    // Two rng copies: both sides must see identical random draws.
    std::mt19937 rng_dense(seed);
    std::mt19937 rng_sparse(seed);

    util::Relation dense;
    util::Relation sparse;
    {
      const ThresholdGuard g(kForceDense);
      dense = util::Relation(8);
      if (seed % 2 == 0) dense.enable_inverse();
    }
    {
      const ThresholdGuard g(kForceSparse);
      sparse = util::Relation(8);
      if (seed % 2 == 0) sparse.enable_inverse();
    }

    for (std::size_t op = 0; op < kOps; ++op) {
      {
        const ThresholdGuard g(kForceDense);
        mutate(dense, rng_dense);
      }
      {
        const ThresholdGuard g(kForceSparse);
        mutate(sparse, rng_sparse);
      }
      ASSERT_EQ(dense.size(), sparse.size()) << "seed " << seed;
      // Mixed-representation equality must hold directly.
      ASSERT_TRUE(dense == sparse)
          << "seed " << seed << " op " << op << "\ndense:  "
          << dense.to_string() << "\nsparse: " << sparse.to_string();
    }

    Observation od, os;
    {
      const ThresholdGuard g(kForceDense);
      od = observe(dense);
    }
    {
      const ThresholdGuard g(kForceSparse);
      os = observe(sparse);
    }
    EXPECT_TRUE(od == os) << "divergent observation at seed " << seed;
    if (seed % 2 == 0) {
      for (std::size_t b = 0; b < dense.size(); ++b) {
        ASSERT_TRUE(dense.column_view(b) == sparse.column_view(b))
            << "seed " << seed << " column " << b;
      }
    }
  }
}

TEST(RelationSparse, SparseRowsSurviveShrinkRegrow) {
  // A sparse set stays sparse on shrink; membership must still track.
  const ThresholdGuard g(kForceSparse);
  util::Relation r(200);
  for (std::size_t i = 0; i + 7 < 200; i += 7) r.add(i, i + 7);
  const auto before = r.pairs();
  while (r.size() > 100) pop_last(r);
  while (r.size() < 200) r.push_back();
  for (const auto& [a, b] : r.pairs()) {
    EXPECT_LT(b, std::size_t{100});  // pairs with dropped endpoints gone
  }
  for (const auto& [a, b] : before) {
    EXPECT_EQ(r.contains(a, b), a < 100 && b < 100);
  }
}

// --- End-to-end: the litmus catalogue with every row forced sparse ------------

TEST(RelationSparse, LitmusCatalogueAgreesUnderForcedSparse) {
  for (const litmus::Test& t : litmus::catalog()) {
    const lang::ParsedLitmus parsed = lang::parse_litmus(t.source);

    mc::ExploreOptions dpor;
    dpor.por = mc::PorMode::kSourceSetsSleep;
    mc::ExploreOptions optimal;
    optimal.por = mc::PorMode::kOptimalParsimonious;

    std::set<util::Fingerprint> fps_default;
    std::set<mc::Outcome> outs_default;
    bool verdict_default = false;
    {
      fps_default = mc::collect_final_executions(parsed.program, dpor);
      outs_default =
          mc::enumerate_outcomes(parsed.program, optimal).outcomes;
      verdict_default =
          mc::check_reachable(parsed.program, parsed.condition, dpor)
              .reachable;
    }

    const ThresholdGuard g(kForceSparse);
    EXPECT_EQ(mc::collect_final_executions(parsed.program, dpor),
              fps_default)
        << t.name << ": final fingerprints diverge under forced sparse";
    EXPECT_EQ(mc::enumerate_outcomes(parsed.program, optimal).outcomes,
              outs_default)
        << t.name << ": outcomes diverge under forced sparse";
    EXPECT_EQ(
        mc::check_reachable(parsed.program, parsed.condition, dpor).reachable,
        verdict_default)
        << t.name << ": verdict diverges under forced sparse";
  }
}

}  // namespace
}  // namespace rc11
