// The three workloads. Every query carries its known answer: catalogue
// verdicts from the table below, corpus verdicts from each file's own
// exists / ~exists annotation, Peterson's theorems, and for generated
// programs the outcome set of full (mode none) exploration.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "axiomatic/equivalence.hpp"
#include "fuzzgen.hpp"
#include "harness.hpp"
#include "lang/parser.hpp"
#include "litmus/catalog.hpp"
#include "litmus/import.hpp"
#include "litmus/runner.hpp"
#include "mc/parallel.hpp"
#include "vcgen/invariant.hpp"
#include "vcgen/peterson.hpp"

namespace perfbench {

namespace mc = rc11::mc;
namespace lang = rc11::lang;
namespace litmus = rc11::litmus;
namespace vcgen = rc11::vcgen;
namespace axiomatic = rc11::axiomatic;

Tracer& tracer() {
  static Tracer t;
  return t;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"litmus_suite",
                                                 "peterson_proof", "fuzz_rmw"};
  return names;
}

namespace {

constexpr mc::PorMode kAllModes[] = {
    mc::PorMode::kNone,          mc::PorMode::kSleepSets,
    mc::PorMode::kSourceSets,    mc::PorMode::kSourceSetsSleep,
    mc::PorMode::kOptimal,       mc::PorMode::kOptimalParsimonious,
};

constexpr std::size_t kParallelWorkers = 2;

mc::ExploreOptions options(mc::PorMode por, rc11::obs::Telemetry* tel,
                           int loop_bound = -1) {
  mc::ExploreOptions o;
  o.por = por;
  o.telemetry = tel;
  o.step.loop_bound = loop_bound;
  return o;
}

mc::ParallelOptions parallel_options(mc::PorMode por,
                                     rc11::obs::Telemetry* tel,
                                     int loop_bound = -1) {
  mc::ParallelOptions o;
  o.explore = options(por, tel, loop_bound);
  o.workers = kParallelWorkers;
  return o;
}

// Sums counters; the seen-set peak is a maximum over the explorations.
void add_stats(Answer& a, const mc::ExploreStats& s) {
  const std::size_t peak = std::max(a.stats.peak_seen_bytes, s.peak_seen_bytes);
  a.stats += s;
  a.stats.peak_seen_bytes = peak;
}

std::string explorer_check(const Answer& a) {
  return a.stats.truncated ? "exploration truncated" : "";
}

// Theorem 4.8 and its converse: the operational and axiomatic
// final-execution sets coincide.
Answer completeness(const lang::Program& p, rc11::obs::Telemetry* tel) {
  Span s("axiomatic.check_completeness");
  const axiomatic::CompletenessResult r =
      axiomatic::check_completeness(p, options(mc::PorMode::kNone, tel));
  Answer a;
  a.verdict = r.equivalent();
  a.candidates = r.enumerate_stats.candidates;
  a.valid = r.enumerate_stats.valid;
  a.stats.truncated = r.enumerate_stats.truncated;
  return a;
}

std::string equivalent(const Answer& a) {
  if (!a.verdict) return "operational and axiomatic sets differ";
  return explorer_check(a);
}

// --- litmus_suite ----------------------------------------------------------

// Hand-written answers for the 21 catalogue tests: true = the exists
// condition is reachable under RC11's RA fragment.
const std::map<std::string, bool>& catalogue_answers() {
  static const std::map<std::string, bool> answers = {
      {"SB", true},        {"SB_ra", true},         {"MP", true},
      {"MP_ra", false},    {"MP_rel_rlx", true},    {"MP_rlx_acq", true},
      {"MP_swap", false},  {"LB", false},           {"CoWW", false},
      {"CoRR2", false},    {"IRIW_ra", true},       {"W2+2W", true},
      {"SwapAtomicity", false}, {"WRC_ra", false},  {"WRC_rlx", true},
      {"S", false},        {"CoRW1", false},        {"CoWR", false},
      {"ISA2", false},     {"SB_rmw", true},        {"W2+2W_ra", true},
  };
  return answers;
}

// The corpus file's own annotation: a line starting "exists" means the
// condition is reachable, "~exists" or "forbidden" that it is not.
bool corpus_answer(const std::string& text, const std::string& origin) {
  std::istringstream in(text);
  std::string line;
  std::optional<bool> answer;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    const std::string_view l(line.c_str() + start);
    if (l.starts_with("~exists") || l.starts_with("forbidden")) {
      answer = false;
    } else if (l.starts_with("exists")) {
      answer = true;
    }
  }
  if (!answer) throw std::runtime_error(origin + ": no exists/~exists line");
  return *answer;
}

struct LitmusProgram {
  std::string name;
  bool reachable = false;
  const litmus::Test* catalogue = nullptr;  // catalogue entry, or
  std::string herd_text;                    // herd-style corpus source
};

// The query body: catalogue tests go through litmus::run_test; corpus
// tests through the same calls run_test makes, one layer at a time, after
// the import.
Answer run_litmus(const LitmusProgram& p, mc::PorMode por,
                  rc11::obs::Telemetry* tel) {
  Answer a;
  const mc::ExploreOptions opts = options(por, tel);
  if (p.catalogue != nullptr) {
    litmus::RunResult r;
    {
      Span s("litmus.run_test");
      r = litmus::run_test(*p.catalogue, opts);
    }
    a.verdict = r.observed_reachable;
    a.outcome_count = r.distinct_outcomes;
    a.outcome_states = r.outcome_stats.states;
    add_stats(a, r.stats);
    add_stats(a, r.outcome_stats);
    return a;
  }
  litmus::ImportedTest t;
  {
    Span s("litmus.import_litmus");
    t = litmus::import_litmus(p.herd_text, p.name);
  }
  lang::ParsedLitmus parsed;
  {
    Span s("lang.parse_litmus");
    parsed = lang::parse_litmus(t.source);
  }
  {
    Span s("mc.check_reachable");
    const mc::ReachabilityResult r =
        mc::check_reachable(parsed.program, parsed.condition, opts);
    a.verdict = r.reachable;
    add_stats(a, r.stats);
  }
  {
    Span s("mc.enumerate_outcomes");
    const mc::OutcomeResult o = mc::enumerate_outcomes(parsed.program, opts);
    a.outcome_count = o.outcomes.size();
    a.outcome_states = o.stats.states;
    add_stats(a, o.stats);
  }
  return a;
}

lang::ParsedLitmus front_end(const LitmusProgram& p) {
  if (p.catalogue != nullptr) {
    Span s("lang.parse_litmus");
    return lang::parse_litmus(p.catalogue->source);
  }
  litmus::ImportedTest t;
  {
    Span s("litmus.import_litmus");
    t = litmus::import_litmus(p.herd_text, p.name);
  }
  Span s("lang.parse_litmus");
  return lang::parse_litmus(t.source);
}

std::vector<LitmusProgram> litmus_programs(const std::string& corpus_dir) {
  std::vector<LitmusProgram> out;
  const auto& answers = catalogue_answers();
  for (const litmus::Test& t : litmus::catalog()) {
    const auto it = answers.find(t.name);
    if (it == answers.end()) {
      throw std::runtime_error("catalogue test without a known answer: " +
                               t.name);
    }
    out.push_back({t.name, it->second, &t, {}});
  }
  if (out.size() != answers.size()) {
    throw std::runtime_error("catalogue lost a test with a known answer");
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(corpus_dir)) {
    if (e.path().extension() == ".litmus") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("empty corpus: " + corpus_dir);
  for (const auto& f : files) {
    std::ifstream in(f);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string name = f.stem().string();
    out.push_back({name, corpus_answer(buf.str(), name), nullptr, buf.str()});
  }
  return out;
}

// --- peterson_proof ---------------------------------------------------------

// Algorithm 1, one-shot (rounds == 0) or with `rounds` acquisitions per
// thread: the front-end call of every Peterson query.
lang::Program build_peterson(int rounds, vcgen::PetersonHandles* h = nullptr) {
  Span s("vcgen.make_peterson");
  return rounds == 0 ? vcgen::make_peterson(h)
                     : vcgen::make_peterson_rounds(rounds, h);
}

// --- fuzz_rmw ----------------------------------------------------------------

// Threads x statements x variables. The first family is the smallest; only
// it runs under source and optimal-parsimonious, in parallel, and against
// the axiomatic enumerator.
constexpr Family kFamilies[] = {
    {"t2s2v2", 2, 2, 2, 300}, {"t2s3v2", 2, 3, 2, 300},
    {"t2s4v4", 2, 4, 4, 300}, {"t3s2v2", 3, 2, 2, 200},
    {"t3s2v4", 3, 2, 4, 300}, {"t4s1v2", 4, 1, 2, 300},
};

}  // namespace

Workload make_litmus_suite(const std::string& corpus_dir) {
  Workload w;
  for (const LitmusProgram& p : litmus_programs(corpus_dir)) {
    auto prog = std::make_shared<LitmusProgram>(p);
    w.setup.push_back({"setup/" + p.name, [prog] { (void)front_end(*prog); }});
    const RefSlot ref = make_ref();  // the mode-none answer
    for (const mc::PorMode por : kAllModes) {
      const bool owner = por == mc::PorMode::kNone;
      w.queries.push_back(
          {p.name + "/" + mc::por_mode_name(por), mc::por_mode_name(por),
           [prog, por](rc11::obs::Telemetry* tel) {
             return run_litmus(*prog, por, tel);
           },
           [prog, ref, owner](const Answer& a) -> std::string {
             if (a.verdict != prog->reachable) return "wrong verdict";
             if (owner && !ref->has_value()) *ref = a;
             if (!ref->has_value()) return "no mode-none reference";
             if (a.outcome_count != (*ref)->outcome_count) {
               return "outcome count differs from mode none";
             }
             return explorer_check(a);
           }});
    }
    // 2-worker parallel explorer: same verdict, same outcomes, and the
    // outcome enumeration visits exactly the sequential state count.
    w.queries.push_back(
        {p.name + "/parallel", "parallel",
         [prog](rc11::obs::Telemetry* tel) {
           const lang::ParsedLitmus parsed = front_end(*prog);
           const mc::ParallelOptions opts =
               parallel_options(mc::PorMode::kNone, tel);
           Answer a;
           mc::ParallelRunInfo reach_info, outcome_info;
           bool reach_truncated = false;
           {
             Span s("mc.check_reachable_parallel");
             const mc::ReachabilityResult r = mc::check_reachable_parallel(
                 parsed.program, parsed.condition, opts, &reach_info);
             a.verdict = r.reachable;
             reach_truncated = r.stats.truncated;
           }
           {
             Span s("mc.enumerate_outcomes_parallel");
             const mc::OutcomeResult o = mc::enumerate_outcomes_parallel(
                 parsed.program, opts, &outcome_info);
             a.outcome_count = o.outcomes.size();
             a.outcome_states = o.stats.states;
             a.stats = o.stats;
           }
           a.stats.truncated = a.stats.truncated || reach_truncated;
           a.workers = reach_info.workers;
           a.workers.insert(a.workers.end(), outcome_info.workers.begin(),
                            outcome_info.workers.end());
           return a;
         },
         [prog, ref](const Answer& a) -> std::string {
           if (a.verdict != prog->reachable) return "wrong verdict";
           if (!ref->has_value()) return "no mode-none reference";
           if (a.outcome_count != (*ref)->outcome_count) {
             return "outcome count differs from sequential";
           }
           if (a.outcome_states != (*ref)->outcome_states) {
             return "parallel state count differs from sequential";
           }
           return explorer_check(a);
         }});
    if (p.catalogue == nullptr) {
      w.queries.push_back(
          {p.name + "/axiomatic", "axiomatic",
           [prog](rc11::obs::Telemetry* tel) {
             return completeness(front_end(*prog).program, tel);
           },
           equivalent});
    }
  }
  return w;
}


Workload make_peterson_proof() {
  Workload w;
  // Every query builds its own program; the same build, timed on its own,
  // is that query's set-up item.
  auto add = [&w](Query q, int rounds) {
    w.setup.push_back(
        {"setup/" + q.id, [rounds] { (void)build_peterson(rounds); }});
    w.queries.push_back(std::move(q));
  };
  auto holds = [](const Answer& a) -> std::string {
    if (!a.verdict) return "property does not hold";
    return explorer_check(a);
  };
  auto mutex_query = [](int loop_bound, mc::PorMode por, int rounds) {
    return [loop_bound, por, rounds](rc11::obs::Telemetry* tel) {
      const lang::Program p = build_peterson(rounds);
      Span s("mc.check_invariant");
      const mc::InvariantResult r = mc::check_invariant(
          p, vcgen::mutual_exclusion(), options(por, tel, loop_bound));
      Answer a;
      a.verdict = r.holds;
      add_stats(a, r.stats);
      return a;
    };
  };

  // Theorem 5.8 over a loop-bound sweep, full and with sleep sets. The
  // full runs at the top bounds are the references of the parallel runs.
  std::map<int, RefSlot> full_ref;
  for (int lb = 0; lb <= 20; ++lb) {
    full_ref[lb] = make_ref();
    for (const mc::PorMode por : {mc::PorMode::kNone, mc::PorMode::kSleepSets}) {
      const RefSlot own = por == mc::PorMode::kNone ? full_ref[lb] : nullptr;
      add({"mutex/lb" + std::to_string(lb) + "/" + mc::por_mode_name(por),
           mc::por_mode_name(por), mutex_query(lb, por, 0),
           [holds, own](const Answer& a) {
             if (own && !own->has_value()) *own = a;
             return holds(a);
           }},
          0);
    }
  }
  // Two acquisition rounds per thread (the Appendix-D formulation); the
  // unfold budget covers the outer loop plus one spin per acquisition.
  add({"mutex/rounds2/none", "none",
       mutex_query(5, mc::PorMode::kNone, 2), holds},
      2);

  // The same checks at the top bounds on the 2-worker parallel explorer:
  // same verdict and exactly the sequential state count.
  for (int lb = 18; lb <= 20; ++lb) {
    const RefSlot ref = full_ref[lb];
    add({"mutex/lb" + std::to_string(lb) + "/parallel", "parallel",
         [lb](rc11::obs::Telemetry* tel) {
           const lang::Program p = build_peterson(0);
           mc::ParallelRunInfo info;
           Span s("mc.check_invariant_parallel");
           const mc::InvariantResult r = mc::check_invariant_parallel(
               p, vcgen::mutual_exclusion(),
               parallel_options(mc::PorMode::kNone, tel, lb), &info);
           Answer a;
           a.verdict = r.holds;
           a.stats = r.stats;
           a.workers = info.workers;
           return a;
         },
         [holds, ref](const Answer& a) -> std::string {
           if (!ref->has_value()) return "no sequential reference";
           if (a.stats.states != (*ref)->stats.states) {
             return "parallel state count differs from sequential";
           }
           return holds(a);
         }},
        0);
  }

  // Section 5.2 invariants (4)-(10) and the Figure-4 rule sweep.
  for (int lb = 0; lb <= 3; ++lb) {
    add({"invariants/lb" + std::to_string(lb), "vcgen",
         [lb](rc11::obs::Telemetry* tel) {
           vcgen::PetersonHandles h;
           const lang::Program p = build_peterson(0, &h);
           Span s("vcgen.check_invariants");
           const vcgen::InvariantSuiteResult r = vcgen::check_invariants(
               p, vcgen::peterson_invariants(h),
               options(mc::PorMode::kNone, tel, lb));
           Answer a;
           a.verdict = r.all_hold;
           add_stats(a, r.stats);
           return a;
         },
         holds},
        0);
    add({"rules/lb" + std::to_string(lb), "vcgen",
         [lb](rc11::obs::Telemetry* tel) {
           const lang::Program p = build_peterson(0);
           Span s("vcgen.check_rule_soundness");
           const vcgen::RuleSoundnessResult r = vcgen::check_rule_soundness(
               p, options(mc::PorMode::kNone, tel, lb));
           Answer a;
           a.verdict = r.sound();
           a.rule_instances = r.applicable;
           return a;
         },
         holds},
        0);
  }

  // Outcome enumeration under the DPOR modes: the same outcome set as
  // full exploration at the same bound.
  for (int lb = 1; lb <= 3; ++lb) {
    const RefSlot ref = make_ref();
    for (const mc::PorMode por : kAllModes) {
      if (por == mc::PorMode::kSleepSets) continue;
      const bool owner = por == mc::PorMode::kNone;
      add({"outcomes/lb" + std::to_string(lb) + "/" + mc::por_mode_name(por),
           mc::por_mode_name(por),
           [lb, por](rc11::obs::Telemetry* tel) {
             const lang::Program p = build_peterson(0);
             Span s("mc.enumerate_outcomes");
             const mc::OutcomeResult o =
                 mc::enumerate_outcomes(p, options(por, tel, lb));
             Answer a;
             a.outcomes = o.outcomes;
             add_stats(a, o.stats);
             return a;
           },
           [owner, ref](const Answer& a) -> std::string {
             if (owner && !ref->has_value()) *ref = a;
             if (!ref->has_value()) return "no mode-none reference";
             if (a.outcomes != (*ref)->outcomes) {
               return "outcome set differs from mode none";
             }
             return explorer_check(a);
           }},
          0);
    }
  }
  return w;
}

Workload make_fuzz_rmw(std::uint64_t seed) {
  Workload w;
  bool smallest = true;
  for (const Family& f : kFamilies) {
    for (int i = 0; i < f.programs; ++i) {
      auto text = std::make_shared<const std::string>(
          generate_program_text(f, seed, i));
      const std::string id = std::string(f.name) + "/" + std::to_string(i);
      auto parse = [text] {
        Span s("lang.parse_litmus");
        return lang::parse_litmus(*text);
      };
      w.setup.push_back({"setup/" + id, [parse] { (void)parse(); }});
      const RefSlot none_ref = make_ref();
      const RefSlot sleep_ref = make_ref();
      std::vector<mc::PorMode> modes = {
          mc::PorMode::kNone, mc::PorMode::kSleepSets,
          mc::PorMode::kSourceSetsSleep, mc::PorMode::kOptimal};
      if (smallest) {
        modes.push_back(mc::PorMode::kSourceSets);
        modes.push_back(mc::PorMode::kOptimalParsimonious);
      }
      for (const mc::PorMode por : modes) {
        const RefSlot own = por == mc::PorMode::kNone        ? none_ref
                            : por == mc::PorMode::kSleepSets ? sleep_ref
                                                             : nullptr;
        w.queries.push_back(
            {id + "/" + mc::por_mode_name(por), mc::por_mode_name(por),
             [parse, por](rc11::obs::Telemetry* tel) {
               const lang::ParsedLitmus parsed = parse();
               Span s("mc.enumerate_outcomes");
               const mc::OutcomeResult o =
                   mc::enumerate_outcomes(parsed.program, options(por, tel));
               Answer a;
               a.outcomes = o.outcomes;
               add_stats(a, o.stats);
               return a;
             },
             [own, none_ref](const Answer& a) -> std::string {
               if (own && !own->has_value()) *own = a;
               if (!none_ref->has_value()) return "no mode-none reference";
               if (a.outcomes != (*none_ref)->outcomes) {
                 return "outcome set differs from mode none";
               }
               return explorer_check(a);
             }});
      }
      if (!smallest) continue;
      w.queries.push_back(
          {id + "/parallel", "parallel",
           [parse](rc11::obs::Telemetry* tel) {
             const lang::ParsedLitmus parsed = parse();
             mc::ParallelRunInfo info;
             Span s("mc.enumerate_outcomes_parallel");
             const mc::OutcomeResult o = mc::enumerate_outcomes_parallel(
                 parsed.program,
                 parallel_options(mc::PorMode::kSleepSets, tel), &info);
             Answer a;
             a.outcomes = o.outcomes;
             a.stats = o.stats;
             a.workers = info.workers;
             return a;
           },
           [none_ref, sleep_ref](const Answer& a) -> std::string {
             if (!none_ref->has_value() || !sleep_ref->has_value()) {
               return "no sequential reference";
             }
             if (a.outcomes != (*none_ref)->outcomes) {
               return "outcome set differs from mode none";
             }
             if (a.stats.states != (*sleep_ref)->stats.states) {
               return "parallel state count differs from sequential";
             }
             return explorer_check(a);
           }});
      w.queries.push_back(
          {id + "/axiomatic", "axiomatic",
           [parse](rc11::obs::Telemetry* tel) {
             return completeness(parse().program, tel);
           },
           equivalent});
    }
    smallest = false;
  }
  return w;
}

}  // namespace perfbench
