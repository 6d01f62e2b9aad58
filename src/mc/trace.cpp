#include "mc/trace.hpp"

#include <sstream>

#include "util/fmt.hpp"

namespace rc11::mc {

std::string Trace::to_string(const c11::VarTable* vars) const {
  std::ostringstream os;
  for (const TraceEntry& e : entries) {
    os << "  t" << e.thread << ": ";
    if (e.silent) {
      os << "(silent)";
    } else {
      os << c11::to_string(e.action, vars);
    }
    if (!e.note.empty()) os << "  [" << e.note << "]";
    os << "\n";
  }
  return os.str();
}

TraceEntry make_entry(const interp::Step& step) {
  TraceEntry e;
  e.thread = step.thread;
  e.silent = step.silent;
  if (!step.silent) {
    e.action = step.action;
    e.note = util::cat("observed e", step.observed);
  } else if (step.loop_unfold) {
    e.note = "loop unfold";
  }
  return e;
}

std::optional<interp::Config> replay_trace(const lang::Program& program,
                                           const Trace& trace,
                                           const interp::StepOptions& opts) {
  // Replays through the incremental engine (the path the explorers take);
  // entries match enumerate_steps signatures directly.
  interp::Config c = interp::initial_config(program);
  std::vector<interp::Step> steps;
  for (const TraceEntry& entry : trace.entries) {
    interp::enumerate_steps(c, opts, steps);
    bool matched = false;
    for (const interp::Step& step : steps) {
      const TraceEntry cand = make_entry(step);
      if (cand.thread == entry.thread && cand.silent == entry.silent &&
          cand.note == entry.note &&
          (entry.silent || (cand.action.kind == entry.action.kind &&
                            cand.action.var == entry.action.var &&
                            cand.action.rval == entry.action.rval &&
                            cand.action.wval == entry.action.wval))) {
        (void)interp::apply_step(c, step, opts);  // forward only
        matched = true;
        break;
      }
    }
    if (!matched) return std::nullopt;
  }
  return c;
}

}  // namespace rc11::mc
