#include "axiomatic/equivalence.hpp"

#include <algorithm>

#include "c11/canonical.hpp"
#include "c11/pretty.hpp"

namespace rc11::axiomatic {

SoundnessResult check_soundness(const lang::Program& program,
                                mc::ExploreOptions options) {
  SoundnessResult result;
  mc::Visitor visitor;
  visitor.on_state = [&](const interp::Config& c) {
    ++result.states_checked;
    const c11::ValidityReport report = c11::check_validity(c.exec);
    if (!report.valid()) {
      result.sound = false;
      result.violation = report.to_string();
      return false;
    }
    return true;
  };
  mc::ExploreResult er = mc::explore(program, options, visitor);
  if (!result.sound) result.trace = std::move(er.abort_trace);
  return result;
}

CompletenessResult check_completeness(const lang::Program& program,
                                      mc::ExploreOptions options,
                                      EnumerateOptions enum_options) {
  CompletenessResult result;
  enum_options.step = options.step;

  const std::set<util::Fingerprint> operational =
      mc::collect_final_executions(program, options);
  ValidExecutions axiomatic = enumerate_valid_executions(program, enum_options);

  result.operational_count = operational.size();
  result.axiomatic_count = axiomatic.keys.size();
  result.enumerate_stats = axiomatic.stats;
  result.truncated = axiomatic.stats.truncated;

  std::vector<util::Fingerprint> only_op, only_ax;
  std::set_difference(operational.begin(), operational.end(),
                      axiomatic.keys.begin(), axiomatic.keys.end(),
                      std::back_inserter(only_op));
  std::set_difference(axiomatic.keys.begin(), axiomatic.keys.end(),
                      operational.begin(), operational.end(),
                      std::back_inserter(only_ax));
  for (const auto& fp : only_op) {
    result.only_operational.push_back(fp.to_string());
  }
  for (const auto& fp : only_ax) {
    result.only_axiomatic.push_back(fp.to_string());
  }
  result.sound = result.only_operational.empty();
  result.complete = result.only_axiomatic.empty();
  return result;
}

AgreementResult check_coherence_agreement(const lang::Program& program,
                                          EnumerateOptions options) {
  AgreementResult result;
  enumerate_candidates(program, options, [&](const c11::Execution& cand) {
    ++result.candidates_checked;
    const c11::DerivedRelations d = c11::compute_derived(cand);
    const bool coherent = c11::check_def42_coherence(cand, d);
    const bool canonical = c11::check_weak_canonical(cand, d).consistent();
    if (coherent != canonical) {
      ++result.disagreements;
      if (result.agree) {
        result.agree = false;
        result.first_disagreement = c11::to_text_with_derived(cand);
      }
    }
    return true;
  });
  return result;
}

}  // namespace rc11::axiomatic
