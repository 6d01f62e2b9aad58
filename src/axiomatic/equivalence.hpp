// Machine-checked renditions of the paper's metatheory:
//
//  * Theorem 4.4 (soundness): every configuration reachable through the
//    operational RA semantics has a valid execution.
//  * Theorem 4.8 (completeness): every valid execution produced by the
//    axiomatic semantics is reached by the operational semantics — checked
//    as set equality of canonical final-execution keys (soundness supplies
//    the reverse inclusion).
//  * Theorem C.15 (Memalloy check): on every candidate execution, the
//    Definition-4.2 Coherence axiom agrees with weak canonical RAR
//    consistency (Definition C.3). The paper verified this up to execution
//    size 7 with Alloy; we verify it on all candidate executions of given
//    programs.
#pragma once

#include <string>
#include <vector>

#include "axiomatic/enumerate.hpp"
#include "mc/checker.hpp"

namespace rc11::axiomatic {

struct SoundnessResult {
  bool sound = true;
  std::size_t states_checked = 0;
  /// Violated axioms at the first unsound state, with a trace to it.
  std::string violation;
  mc::Trace trace;
};

/// Theorem 4.4: checks Definition-4.2 validity of every reachable state.
[[nodiscard]] SoundnessResult check_soundness(const lang::Program& program,
                                              mc::ExploreOptions options = {});

struct CompletenessResult {
  bool complete = true;  ///< axiomatic set a subset of operational set
  bool sound = true;     ///< operational set a subset of axiomatic set
  std::size_t operational_count = 0;
  std::size_t axiomatic_count = 0;
  EnumerateStats enumerate_stats;
  /// Fingerprints (as hex strings) present on one side only (diagnostics;
  /// empty when equivalent).
  std::vector<std::string> only_operational;
  std::vector<std::string> only_axiomatic;
  /// The axiomatic enumeration hit a cap (enumerate_stats.truncated): its
  /// key set is partial, so agreement of the two sets proves nothing.
  bool truncated = false;

  [[nodiscard]] bool equivalent() const {
    return complete && sound && !truncated;
  }
};

/// Theorem 4.8 (+ 4.4 for the converse): operational and axiomatic final
/// execution sets coincide. Both sides use the same loop bound.
[[nodiscard]] CompletenessResult check_completeness(
    const lang::Program& program, mc::ExploreOptions options = {},
    EnumerateOptions enum_options = {});

struct AgreementResult {
  bool agree = true;
  std::size_t candidates_checked = 0;
  std::size_t disagreements = 0;
  /// Dump of the first disagreeing candidate (empty when agree).
  std::string first_disagreement;
};

/// Theorem C.15: Definition-4.2 Coherence versus weak canonical RAR
/// consistency on every candidate execution of the program.
[[nodiscard]] AgreementResult check_coherence_agreement(
    const lang::Program& program, EnumerateOptions options = {});

}  // namespace rc11::axiomatic
