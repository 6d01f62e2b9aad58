// The benchmark's own seeded program generator for the fuzz_rmw workload.
//
// It writes programs as text in the lang::parse_litmus grammar, so the
// checker receives only generated input and set-up time covers a real
// parse. It stays inside the paper's fragment: relaxed, releasing and
// acquiring accesses, release-acquire RMW swaps, and conditionals whose
// guard reads a shared variable. Generation depends only on the seed and
// this file, never on the checker's own generator.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Family {
  const char* name;
  int threads;
  int stmts;     // top-level statements per thread
  int vars;      // 2: contended, 4: sparse
  int programs;  // programs drawn per seed
};

// splitmix64: fixed output for a fixed seed on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  bool percent(int p) { return below(100) < p; }

 private:
  std::uint64_t s_;
};

// Program `index` of `family` under `seed`, as parse_litmus text.
std::string generate_program_text(const Family& family, std::uint64_t seed,
                                  int index);

}  // namespace perfbench
