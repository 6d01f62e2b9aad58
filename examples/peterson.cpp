// Peterson's algorithm (Algorithm 1), verified three ways:
//   1. direct model checking of mutual exclusion (Theorem 5.8);
//   2. the paper's invariants (4)-(10) checked at every reachable state;
//   3. the Figure-4 proof rules swept over every reachable transition.
// Plus the negative control: the relaxed variant loses mutual exclusion.
//
//   ./peterson [--bound N] [--rounds N] [--rules]
#include <iostream>

#include "rc11/rc11.hpp"

using namespace rc11;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("bound", "2", "busy-wait loop unfolding bound");
  cli.option("rounds", "1", "outer acquisitions per thread (1 = one-shot)");
  cli.flag("rules", "also sweep the Figure-4 proof rules (slower)");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage("peterson");
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("peterson");
    return 0;
  }
  const int bound = static_cast<int>(cli.get_int("bound"));
  const int rounds = static_cast<int>(cli.get_int("rounds"));

  vcgen::PetersonHandles h;
  const lang::Program prog = rounds <= 1
                                 ? vcgen::make_peterson(&h)
                                 : vcgen::make_peterson_rounds(rounds, &h);
  std::cout << "Peterson's algorithm (release-acquire), rounds=" << rounds
            << ", loop bound=" << bound << ":\n"
            << prog.to_string() << "\n";

  mc::ExploreOptions opts;
  opts.step.loop_bound = bound;

  // 1. Mutual exclusion.
  const mc::InvariantResult mutex =
      mc::check_invariant(prog, vcgen::mutual_exclusion(), opts);
  std::cout << "Theorem 5.8 (mutual exclusion): "
            << (mutex.holds ? "HOLDS" : "VIOLATED") << "  ["
            << mutex.stats.to_string() << "]\n";

  // 2. The invariants of Section 5.2.
  const vcgen::InvariantSuiteResult invs =
      vcgen::check_invariants(prog, vcgen::peterson_invariants(h), opts);
  std::cout << "Invariants (4)-(10): "
            << (invs.all_hold ? "ALL HOLD" : "FAILED: " + invs.failed)
            << "  [" << invs.stats.to_string() << "]\n";

  // 3. Rule soundness sweep (optional; quadratic in variables).
  bool rules_sound = true;
  if (cli.get_flag("rules")) {
    const vcgen::RuleSoundnessResult rules =
        vcgen::check_rule_soundness(prog, opts);
    std::cout << "Figure-4 rules: " << rules.applicable
              << " applicable instances over " << rules.transitions
              << " transitions, unsound: " << rules.unsound << "\n";
    rules_sound = rules.sound();
  }

  // Negative control: relaxed turn assignment.
  lang::ProgramBuilder b;
  auto flag1 = b.var("flag1", 0);
  auto flag2 = b.var("flag2", 0);
  auto turn = b.var("turn", 1);
  auto body = [&](lang::SharedVar mine, lang::SharedVar theirs,
                  lang::Value other) {
    return lang::seq(
        {lang::labeled(2, lang::assign(mine, 1)),
         lang::labeled(3, lang::assign(turn, other)),
         lang::labeled(4,
                       lang::while_do((theirs.acq() == lang::constant(1)) &&
                                          (lang::ExprPtr(turn) ==
                                           lang::constant(other)),
                                      lang::skip())),
         lang::labeled(5, lang::skip()),
         lang::labeled(6, lang::assign_rel(mine, 0))});
  };
  b.thread(body(flag1, flag2, 2));
  b.thread(body(flag2, flag1, 1));
  const lang::Program broken = std::move(b).build();
  const mc::InvariantResult broken_r =
      mc::check_invariant(broken, vcgen::mutual_exclusion(), opts);
  std::cout << "\nNegative control (turn := other relaxed, no swap): "
            << (broken_r.holds ? "unexpectedly holds?!"
                               : "mutual exclusion VIOLATED, as expected")
            << "\n";
  if (!broken_r.holds) {
    std::cout << "counterexample:\n"
              << broken_r.counterexample.to_string(&broken.vars());
  }
  const bool ok =
      mutex.holds && invs.all_hold && rules_sound && !broken_r.holds;
  return ok ? 0 : 1;
}
