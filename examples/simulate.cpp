// Observability walkthrough: performs a random (seeded) schedule of a
// program and, after every memory event, prints the per-thread
// encountered/observable/covered sets — the paper's Section 3.2 machinery
// live. Defaults to the Example 3.6 scenario (Peterson's turn handshake).
//
//   ./simulate [--seed N] [--steps N] [--program peterson|mp]
#include <iostream>
#include <random>
#include <vector>

#include "rc11/rc11.hpp"

using namespace rc11;

namespace {

void print_observability(const interp::Config& c) {
  const auto d = c11::compute_derived(c.exec);
  const c11::VarTable& vars = c.program->vars();
  for (c11::ThreadId t = 1; t <= c.thread_count(); ++t) {
    const auto o = c11::compute_observability(c.exec, d, t);
    std::cout << "    EW(" << t << ") = " << o.encountered.to_string()
              << "  OW(" << t << ") = " << o.observable.to_string() << "\n";
  }
  std::cout << "    CW = " << c11::covered_writes(c.exec).to_string()
            << "\n";
  (void)vars;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("seed", "1", "schedule seed");
  cli.option("steps", "14", "number of steps to simulate");
  cli.option("program", "peterson", "peterson or mp");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage("simulate");
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("simulate");
    return 0;
  }

  lang::Program prog;
  if (cli.get("program") == "mp") {
    lang::ProgramBuilder b;
    auto d = b.var("d", 0);
    auto f = b.var("f", 0);
    auto r = b.reg("r");
    b.thread({lang::assign(d, 5), lang::assign_rel(f, 1)});
    b.thread({lang::reg_assign(r, f.acq()),
              lang::reg_assign(b.reg("r2"), lang::ExprPtr(d))});
    prog = std::move(b).build();
  } else {
    prog = vcgen::make_peterson();
  }
  std::cout << prog.to_string() << "\n";

  std::mt19937 rng(static_cast<unsigned>(cli.get_int("seed")));
  interp::StepOptions sopts;
  sopts.loop_bound = 2;
  interp::Config c = interp::initial_config(prog);
  std::vector<interp::Step> enabled;
  const int steps = static_cast<int>(cli.get_int("steps"));
  for (int i = 0; i < steps; ++i) {
    interp::enumerate_steps(c, sopts, enabled);
    if (enabled.empty()) {
      std::cout << (c.terminated() ? "terminated\n" : "blocked by bound\n");
      break;
    }
    const interp::Step& step = enabled[rng() % enabled.size()];
    if (step.silent) {
      std::cout << "step " << i << ": t" << step.thread << " (silent)\n";
    } else {
      std::cout << "step " << i << ": t" << step.thread << " "
                << c11::to_string(step.action, &prog.vars())
                << "  observing e" << step.observed << "\n";
    }
    (void)interp::apply_step(c, step, sopts);
    if (!step.silent) print_observability(c);
  }
  std::cout << "\nfinal execution:\n"
            << c11::to_text_with_derived(c.exec, &prog.vars());
  return 0;
}
