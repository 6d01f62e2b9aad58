#include "axiomatic/enumerate.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "interp/preexec.hpp"
#include "mc/statespace.hpp"

namespace rc11::axiomatic {

std::string EnumerateStats::to_string() const {
  std::ostringstream os;
  os << "pre_executions=" << pre_executions << " candidates=" << candidates
     << " valid=" << valid;
  if (truncated) os << " (TRUNCATED)";
  return os.str();
}

util::Fingerprint execution_key(const c11::Execution& ex) {
  return ex.fingerprint();
}

namespace {

/// Enumerates rf then mo choices over one pre-execution, invoking the
/// callback per completed candidate. Returns false if the callback stopped
/// the enumeration.
class CandidateBuilder {
 public:
  CandidateBuilder(const c11::Execution& pre, const EnumerateOptions& options,
                   EnumerateStats& stats, const CandidateCallback& callback)
      : pre_(pre), options_(options), stats_(stats), callback_(callback) {
    pre_.clear_rf();
    pre_.clear_mo();
    pre_.reads().for_each(
        [&](std::size_t r) { reads_.push_back(static_cast<c11::EventId>(r)); });
    for (c11::VarId x = 0; x < pre_.var_count(); ++x) {
      std::vector<c11::EventId> init_writes, other_writes;
      pre_.writes_on(x).for_each([&](std::size_t w) {
        const auto id = static_cast<c11::EventId>(w);
        (pre_.event(id).is_init() ? init_writes : other_writes).push_back(id);
      });
      if (init_writes.size() + other_writes.size() == 0) continue;
      vars_.push_back(VarWrites{x, init_writes, other_writes});
    }
  }

  /// Runs the enumeration; returns false iff stopped by the callback.
  bool run() { return choose_rf(0); }

 private:
  struct VarWrites {
    c11::VarId var;
    std::vector<c11::EventId> inits;   // 0 or 1 in well-formed programs
    std::vector<c11::EventId> others;  // non-initialising writes
  };

  bool choose_rf(std::size_t i) {
    if (i == reads_.size()) return choose_mo(0);
    const c11::EventId r = reads_[i];
    const c11::Event& re = pre_.event(r);
    bool any = false;
    for (c11::EventId w = 0; w < pre_.size(); ++w) {
      const c11::Event& we = pre_.event(w);
      if (w == r || !we.is_write()) continue;
      if (we.var() != re.var() || we.wrval() != re.rdval()) continue;
      any = true;
      pre_.add_rf(w, r);
      const bool keep_going = choose_rf(i + 1);
      pre_.remove_rf(w, r);
      if (!keep_going) return false;
    }
    // RfComplete requires every read to be justified: a read with no
    // matching write kills the whole pre-execution branch.
    (void)any;
    return true;
  }

  bool choose_mo(std::size_t v) {
    if (v == vars_.size()) return emit();
    VarWrites& vw = vars_[v];
    // mo|x = init write first, then any permutation of the rest.
    std::vector<c11::EventId> perm = vw.others;
    std::sort(perm.begin(), perm.end());
    do {
      // Build the total order: inits, then perm.
      std::vector<c11::EventId> order = vw.inits;
      order.insert(order.end(), perm.begin(), perm.end());
      for (std::size_t a = 0; a < order.size(); ++a) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          pre_.add_mo(order[a], order[b]);
        }
      }
      const bool keep_going = choose_mo(v + 1);
      for (std::size_t a = 0; a < order.size(); ++a) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          pre_.remove_mo(order[a], order[b]);
        }
      }
      if (!keep_going) return false;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return true;
  }

  bool emit() {
    if (++stats_.candidates > options_.max_candidates) {
      stats_.truncated = true;
      return false;
    }
    return callback_(pre_);
  }

  c11::Execution pre_;
  const EnumerateOptions& options_;
  EnumerateStats& stats_;
  const CandidateCallback& callback_;
  std::vector<c11::EventId> reads_;
  std::vector<VarWrites> vars_;
};

/// Cap on the configurations the pre-execution search visits, a safety
/// valve against runaway programs; hitting it marks the enumeration
/// truncated.
constexpr std::size_t kMaxPreExecutionStates = 5'000'000;

/// A configuration of the pre-execution search with its ==>_PE successors.
struct PeFrame {
  interp::Config config;
  std::vector<interp::ConfigStep> steps;
  std::size_t next = 0;
};

}  // namespace

EnumerateStats enumerate_candidates(const lang::Program& program,
                                    const EnumerateOptions& options,
                                    const CandidateCallback& callback) {
  EnumerateStats stats;
  const std::vector<lang::Value> domain = interp::value_domain(program);

  // Builds the candidates of each unique terminated pre-execution; false
  // stops the search.
  const auto visit = [&](const interp::Config& c) {
    if (!c.terminated()) return true;
    if (++stats.pre_executions > options.max_pre_executions) {
      stats.truncated = true;
      return false;
    }
    return CandidateBuilder(c.exec, options, stats, callback).run();
  };

  // Depth-first search of ==>_PE from the initial configuration, merging
  // configurations by fingerprint.
  mc::SeenSet seen;
  std::size_t states = 1;
  std::vector<PeFrame> stack(1);
  stack[0].config = interp::initial_config(program);
  (void)seen.insert(stack[0].config.fingerprint());
  if (!visit(stack[0].config)) return stats;
  stack[0].steps = interp::pe_successors(stack[0].config, domain, options.step);
  while (!stack.empty()) {
    PeFrame& top = stack.back();
    if (top.next == top.steps.size()) {
      stack.pop_back();
      continue;
    }
    interp::Config next = std::move(top.steps[top.next++].next);
    if (!seen.insert(next.fingerprint()).inserted) continue;
    if (states >= kMaxPreExecutionStates) {
      stats.truncated = true;
      return stats;
    }
    ++states;
    if (!visit(next)) return stats;
    std::vector<interp::ConfigStep> steps =
        interp::pe_successors(next, domain, options.step);
    stack.push_back({std::move(next), std::move(steps)});
  }
  return stats;
}

ValidExecutions enumerate_valid_executions(const lang::Program& program,
                                           const EnumerateOptions& options) {
  ValidExecutions out;
  std::size_t valid = 0;
  out.stats = enumerate_candidates(
      program, options, [&](const c11::Execution& candidate) {
        if (c11::is_valid(candidate)) {
          ++valid;
          out.keys.insert(execution_key(candidate));
        }
        return true;
      });
  out.stats.valid = valid;
  return out;
}

}  // namespace rc11::axiomatic
