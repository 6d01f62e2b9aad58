// Ablation M1a: the relation engine. Transitive closure, composition and
// derived-relation computation as a function of execution size — the hot
// path of validity checking and observability (DESIGN.md section 3).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "rc11/rc11.hpp"

using namespace rc11;

namespace {

util::Relation random_dag(std::size_t n, double density, unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution edge(density);
  util::Relation r(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (edge(rng)) r.add(a, b);
    }
  }
  return r;
}

void transitive_closure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Relation r = random_dag(n, 0.1, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.transitive_closure());
  }
  state.counters["pairs"] = static_cast<double>(r.pair_count());
}
BENCHMARK(transitive_closure)->RangeMultiplier(2)->Range(8, 256);

void composition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Relation r = random_dag(n, 0.1, 1);
  const util::Relation s = random_dag(n, 0.1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.compose(s));
  }
}
BENCHMARK(composition)->RangeMultiplier(2)->Range(8, 256);

void acyclicity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Relation r = random_dag(n, 0.05, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.is_acyclic());
  }
}
BENCHMARK(acyclicity)->RangeMultiplier(2)->Range(8, 256);

/// A growing execution: k threads alternately writing and reading one of
/// three variables; measures compute_derived (sw/hb/fr/eco) end to end.
c11::Execution growing_execution(std::size_t events) {
  c11::Execution ex =
      c11::Execution::initial({{0, 0}, {1, 0}, {2, 0}});
  std::mt19937 rng(99);
  for (std::size_t i = 0; i < events; ++i) {
    const c11::ThreadId t = 1 + static_cast<c11::ThreadId>(i % 3);
    const c11::VarId x = static_cast<c11::VarId>(rng() % 3);
    const auto d = c11::compute_derived(ex);
    if (i % 2 == 0) {
      const auto opts = c11::write_options(ex, d, t, x);
      if (!opts.empty()) {
        ex = c11::apply_write(ex, t, x, static_cast<c11::Value>(i), i % 4 == 0,
                              opts[rng() % opts.size()])
                 .next;
      }
    } else {
      const auto opts = c11::read_options(ex, d, t, x);
      if (!opts.empty()) {
        ex = c11::apply_read(ex, t, x, i % 3 == 0,
                             opts[rng() % opts.size()].write)
                 .next;
      }
    }
  }
  return ex;
}

void derived_relations(benchmark::State& state) {
  const c11::Execution ex =
      growing_execution(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c11::compute_derived(ex));
  }
  state.counters["events"] = static_cast<double>(ex.size());
}
BENCHMARK(derived_relations)->RangeMultiplier(2)->Range(8, 128);

void validity_check(benchmark::State& state) {
  const c11::Execution ex =
      growing_execution(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c11::check_validity(ex).valid());
  }
  state.counters["events"] = static_cast<double>(ex.size());
}
BENCHMARK(validity_check)->RangeMultiplier(2)->Range(8, 128);

void canonical_key(benchmark::State& state) {
  const c11::Execution ex =
      growing_execution(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.canonical_key());
  }
}
BENCHMARK(canonical_key)->RangeMultiplier(2)->Range(8, 128);

// --- Dense vs sparse row representation ---------------------------------------
//
// The hybrid Bitset switches a growing row to the chunked sparse form past
// util::Bitset::sparse_threshold_words(). The pair below pins the
// representations explicitly (huge threshold = always dense, 0 = always
// sparse) over the same *sparse-shaped* input — a program-order-like chain
// with a few long-range edges, the shape of sb/hb rows in large
// executions — so the series exposes the crossover and the footprint gap.
// `pairs` and `rel_bytes` are deterministic, so the JSON report gates them
// (pairs as a drift tripwire, rel_bytes as a lower-is-better memory gate).

/// Restores the global threshold on scope exit (benches run in-process).
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

/// k chains of n/k elements with every-8th long-range edge: ~1.1 edges per
/// node regardless of n (row density O(1/n), the sparse-friendly regime).
util::Relation chain_dag(std::size_t n) {
  util::Relation r(n);
  constexpr std::size_t kChains = 4;
  for (std::size_t c = 0; c < kChains; ++c) {
    for (std::size_t a = c; a + kChains < n; a += kChains) {
      r.add(a, a + kChains);
      if (a % 8 == 0 && a + n / 2 < n) r.add(a, a + n / 2);
    }
  }
  return r;
}

void closure_chain_rows(benchmark::State& state, std::size_t threshold) {
  const ThresholdGuard guard(threshold);
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Relation r = chain_dag(n);
  util::Relation closure;
  for (auto _ : state) {
    closure = r.transitive_closure();
    benchmark::DoNotOptimize(closure);
  }
  state.counters["pairs"] = static_cast<double>(closure.pair_count());
  state.counters["rel_bytes"] = static_cast<double>(r.storage_bytes());
}

void closure_chain_dense(benchmark::State& state) {
  closure_chain_rows(state, ~std::size_t{0} >> 1);
}
BENCHMARK(closure_chain_dense)->RangeMultiplier(4)->Range(64, 4096);

void closure_chain_sparse(benchmark::State& state) {
  closure_chain_rows(state, 0);
}
BENCHMARK(closure_chain_sparse)->RangeMultiplier(4)->Range(64, 4096);

void restrict_compose_rows(benchmark::State& state, std::size_t threshold) {
  const ThresholdGuard guard(threshold);
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::Relation r = chain_dag(n);
  const util::Relation s = r.inverse();
  util::Bitset half(n);
  for (std::size_t i = 0; i < n; i += 2) half.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.compose(s).restrict_to(half));
  }
  state.counters["pairs"] = static_cast<double>(r.pair_count());
  state.counters["rel_bytes"] = static_cast<double>(r.storage_bytes());
}

void restrict_compose_dense(benchmark::State& state) {
  restrict_compose_rows(state, ~std::size_t{0} >> 1);
}
BENCHMARK(restrict_compose_dense)->RangeMultiplier(4)->Range(64, 4096);

void restrict_compose_sparse(benchmark::State& state) {
  restrict_compose_rows(state, 0);
}
BENCHMARK(restrict_compose_sparse)->RangeMultiplier(4)->Range(64, 4096);

// --- Push/pop on one deep spine -----------------------------------------------
//
// The incremental engine grows and shrinks an execution one event at a
// time (Execution::push_event / pop_event). push_pop_depth/N drives one
// spine of Peterson's rounds program to N events, then times a single
// push/pop pair on top of it. Rows keep their own width and a pop clears
// only the popped event's bits, so a pair costs O(neighbourhood of the
// event), not O(N) row resizes. The neighbourhood itself grows with N
// here — hb and eco are transitive, so the new event's hb/eco columns
// hold most earlier events — which sets the slope that remains. Pinned
// dense and forced-sparse like the closure series; `pairs` (rf + mo pairs
// of the spine) is deterministic and gated as a drift tripwire.

void push_pop_rows(benchmark::State& state, std::size_t threshold) {
  const ThresholdGuard guard(threshold);
  const auto depth = static_cast<std::size_t>(state.range(0));
  // Unbounded loops; a seeded random choice lets both threads make rounds,
  // so the spine carries writes and long mo rows, not only spinning reads.
  const interp::StepOptions opts;
  interp::Config c = interp::initial_config(vcgen::make_peterson_rounds(400));
  std::mt19937 rng(7);
  std::vector<interp::Step> steps;
  std::vector<interp::StepUndo> undos;
  auto top = steps.end();  // the visible step pushed and popped on top
  while (true) {
    interp::enumerate_steps(c, opts, steps);
    top = std::find_if(steps.begin(), steps.end(),
                       [](const interp::Step& s) { return !s.silent; });
    if (steps.empty() || (c.exec.size() >= depth && top != steps.end())) {
      break;
    }
    undos.emplace_back();
    interp::apply_step(c, steps[rng() % steps.size()], opts, undos.back());
  }
  if (top == steps.end()) {
    state.SkipWithError("spine ended before the requested depth");
    return;
  }
  c11::Execution::UndoToken tok;
  for (auto _ : state) {
    c.exec.push_event(top->thread, top->action, top->observed, tok);
    c.exec.pop_event(tok);
  }
  state.counters["events"] = static_cast<double>(c.exec.size());
  state.counters["pairs"] = static_cast<double>(c.exec.rf().pair_count() +
                                                c.exec.mo().pair_count());
}

void push_pop_depth(benchmark::State& state) {
  push_pop_rows(state, ~std::size_t{0} >> 1);
}
BENCHMARK(push_pop_depth)->Arg(64)->Arg(256)->Arg(1024);

void push_pop_depth_sparse(benchmark::State& state) {
  push_pop_rows(state, 0);
}
BENCHMARK(push_pop_depth_sparse)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

#include "bench_report.hpp"

RC11_BENCH_MAIN("relations")
