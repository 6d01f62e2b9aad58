// ttv: time-to-verdict benchmark over one workload.
//
//   ttv --workload <litmus_suite|peterson_proof|fuzz_rmw> --seed <n>
//       --seconds <s> --trace <0|1> [--corpus <dir>] [--spans-out <file>]
//
// After one untimed warm-up pass (which also fixes every reference
// answer), it runs passes until --seconds have elapsed. A pass runs every
// query, every set-up item and a batch of calibration kernels once each,
// in an order shuffled from the seed, so every query samples the whole
// span of host time. Each time is scaled by the pass's host-speed factor
// (calib.hpp); a query's time is its median over the passes, and sums are
// sums of those medians.
//
// --trace 0 reports the end-to-end metrics with all telemetry off.
// --trace 1 alternates untraced and traced passes and reports per-layer
// metrics: self time of spans the harness records around each call into
// the program, the program's own phase profile (ExploreOptions::telemetry)
// and its exact exploration counts. Each printed metric line carries its
// unit and sample count; the last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hpp"
#include "fuzzgen.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

namespace obs = rc11::obs;

constexpr int kMinPasses = 3;
constexpr std::size_t kMinCalibItems = 30;
constexpr std::size_t kItemsPerCalib = 25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string corpus = "perfbench/corpus";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ttv: " << why
            << "\nusage: ttv --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--corpus <dir>] [--spans-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--corpus") a.corpus = v;
      else if (flag == "--spans-out") a.spans_out = v;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// The exploration counts of a sequential query; they must repeat exactly
// on every run.
struct Counts {
  std::size_t states = 0, transitions = 0, merged = 0, finals = 0,
              sleep_blocked = 0, redundant = 0, por_pruned = 0,
              backtracks = 0, max_depth = 0, peak_seen_bytes = 0,
              enum_reused = 0, enum_recomputed = 0, candidates = 0,
              valid = 0, rule_instances = 0, outcomes = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const Answer& a) {
  const rc11::mc::ExploreStats& s = a.stats;
  Counts c;
  c.states = s.states;
  c.transitions = s.transitions;
  c.merged = s.merged;
  c.finals = s.finals;
  c.sleep_blocked = s.sleep_blocked;
  c.redundant = s.redundant_transitions;
  c.por_pruned = s.por_pruned;
  c.backtracks = s.backtracks;
  c.max_depth = s.max_depth;
  c.peak_seen_bytes = s.peak_seen_bytes;
  c.enum_reused = s.enum_threads_reused;
  c.enum_recomputed = s.enum_threads_recomputed;
  c.candidates = a.candidates;
  c.valid = a.valid;
  c.rule_instances = a.rule_instances;
  c.outcomes = std::max(a.outcomes.size(), a.outcome_count);
  return c;
}

// Raw times of one item, one entry per pass; [0] untraced, [1] traced.
struct Samples {
  std::vector<double> ns[2];
};

// Per-layer figures of one traced pass.
struct LayerPass {
  std::map<std::string, double> ms;  // span self time by metric
  std::size_t parse_calls = 0;
  obs::PhaseProfile phases;
  double steals = 0;
  double worker_max = 0, worker_mean = 0;
};

// Span name -> per-layer metric that sums its self time.
const std::map<std::string, std::string>& span_metrics() {
  static const std::map<std::string, std::string> m = {
      {"lang.parse_litmus", "lang.parse_ms"},
      {"litmus.import_litmus", "litmus.import_ms"},
      {"litmus.run_test", "litmus.run_test_ms"},
      {"mc.check_invariant", "mc.invariant_ms"},
      {"mc.enumerate_outcomes", "mc.outcomes_ms"},
      {"mc.check_reachable", "mc.reachable_ms"},
      {"mc.check_invariant_parallel", "mc.parallel_ms"},
      {"mc.check_reachable_parallel", "mc.parallel_ms"},
      {"mc.enumerate_outcomes_parallel", "mc.parallel_ms"},
      {"axiomatic.check_completeness", "axiomatic.enumerate_ms"},
      {"vcgen.check_invariants", "vcgen.invariants_ms"},
      {"vcgen.check_rule_soundness", "vcgen.rules_ms"},
      {"vcgen.make_peterson", "vcgen.build_ms"},
  };
  return m;
}

struct PhaseMetric {
  const char* name;
  obs::Phase phase;
};
constexpr PhaseMetric kPhaseMetrics[] = {
    {"interp.enumerate_ms", obs::Phase::kEnumerate},
    {"interp.apply_ms", obs::Phase::kApply},
    {"interp.undo_ms", obs::Phase::kUndo},
    {"c11.push_event_ms", obs::Phase::kPushEvent},
    {"c11.fingerprint_ms", obs::Phase::kFingerprint},
    {"mc.seen_probe_ms", obs::Phase::kSeenProbe},
    {"mc.wakeup_insert_ms", obs::Phase::kWakeupInsert},
    {"mc.race_detect_ms", obs::Phase::kRaceDetect},
};

const char* const kModes[] = {"none",    "sleep",   "source", "source-sleep",
                              "optimal", "optimal-parsimonious"};

// Folds the self time of spans[begin, end) into `pass`: a span's duration
// minus the durations of its children.
void fold_spans(const std::vector<SpanRec>& spans, std::size_t begin,
                std::size_t end, LayerPass& pass) {
  std::vector<double> child(end - begin, 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRec& s = spans[i];
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= begin) {
      child[static_cast<std::size_t>(s.parent) - begin] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  const auto& metrics = span_metrics();
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRec& s = spans[i];
    if (std::strcmp(s.name, "lang.parse_litmus") == 0) ++pass.parse_calls;
    const auto it = metrics.find(s.name);
    if (it == metrics.end()) continue;
    const double self =
        static_cast<double>(s.end_ns - s.start_ns) - child[i - begin];
    pass.ms[it->second] += self / 1e6;
  }
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
// per span; args carry the span index, its parent and the query id.
void write_spans(const std::string& path, const std::vector<SpanRec>& spans,
                 const std::vector<std::string>& item_ids) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "ttv: cannot write spans to " << path << "\n";
    return;
  }
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    os << (i == 0 ? "" : ",\n") << R"({"name":")" << s.name
       << R"(","ph":"X","pid":1,"tid":1,"ts":)"
       << fmt(static_cast<double>(s.start_ns - t0) / 1e3)
       << ",\"dur\":" << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
       << R"(,"args":{"span":)" << i << ",\"parent\":" << s.parent
       << ",\"query\":\"" << item_ids[s.query] << "\"}}";
  }
  os << "\n]\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  // sample count and how the value was formed
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

class Runner {
 public:
  Runner(const Args& args, Workload w)
      : args_(args),
        w_(std::move(w)),
        n_setup_(w_.setup.size()),
        n_queries_(w_.queries.size()),
        n_calib_(std::max(kMinCalibItems,
                          (n_setup_ + n_queries_) / kItemsPerCalib)),
        samples_(n_setup_ + n_queries_),
        counts_(n_queries_),
        truncated_(n_queries_, false),
        order_rng_(args.seed * 0x2545f4914f6cdd1dULL + 1) {
    for (const auto& s : w_.setup) ids_.push_back(s.id);
    for (const auto& q : w_.queries) ids_.push_back(q.id);
  }

  void run() {
    pass(false, false);  // warm-up: fills every reference answer
    const std::uint64_t start = now_ns();
    while (passes_ < kMinPasses ||
           static_cast<double>(now_ns() - start) / 1e9 < args_.seconds) {
      pass(true, false);
      if (args_.trace) pass(true, true);
      ++passes_;
    }
  }

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  void print(const std::vector<Metric>& metrics) const;
  void write_spans_file() const {
    if (!args_.spans_out.empty()) {
      write_spans(args_.spans_out, tracer().spans, ids_);
    }
  }

 private:
  // Item i's time per pass of kind t, scaled to the reference host.
  double scaled_median(std::size_t i, int t) const {
    const std::vector<double>& raw = samples_[i].ns[t];
    std::vector<double> v(raw.size());
    for (std::size_t k = 0; k < raw.size(); ++k) {
      v[k] = raw[k] * kCalibRefNs / calib_[t][k];
    }
    return median(v);
  }
  double raw_median(std::size_t i, int t) const {
    return median(samples_[i].ns[t]);
  }
  std::vector<double> query_medians(int t) const {
    std::vector<double> m(n_queries_);
    for (std::size_t q = 0; q < n_queries_; ++q) {
      m[q] = scaled_median(n_setup_ + q, t);
    }
    return m;
  }

  void fail(const std::string& id, const std::string& why) {
    correct_ = false;
    if (shown_++ < 10) std::cerr << "ttv: FAIL " << id << ": " << why << "\n";
  }

  void run_query(std::size_t q, bool timed, bool traced, LayerPass* layers);
  void pass(bool timed, bool traced);

  const Args& args_;
  Workload w_;
  std::size_t n_setup_, n_queries_, n_calib_;
  std::vector<std::string> ids_;
  std::vector<Samples> samples_;
  std::vector<double> calib_[2];  // per pass: median calibration time
  std::vector<std::optional<Counts>> counts_;
  std::vector<bool> truncated_;
  std::vector<LayerPass> layers_;
  Rng order_rng_;
  int passes_ = 0;
  std::size_t attempted_ = 0, failed_ = 0, shown_ = 0;
  bool correct_ = true;
};

void Runner::run_query(std::size_t q, bool timed, bool traced,
                       LayerPass* layers) {
  const Query& query = w_.queries[q];
  std::optional<obs::Telemetry> tel;
  if (traced) tel.emplace();
  Answer a;
  std::string why;
  const std::uint64_t t0 = now_ns();
  try {
    Span root("bench.query");
    a = query.run(tel ? &*tel : nullptr);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  const std::uint64_t t1 = now_ns();
  if (a.stats.truncated) truncated_[q] = true;
  if (why.empty()) why = query.check(a);
  if (why.empty() && query.group != "parallel") {
    const Counts c = counts_of(a);
    if (!counts_[q]) counts_[q] = c;
    else if (!(*counts_[q] == c)) why = "exploration counts changed between runs";
  }
  if (timed) {
    ++attempted_;
    samples_[n_setup_ + q].ns[traced ? 1 : 0].push_back(
        static_cast<double>(t1 - t0));
    if (!why.empty()) ++failed_;
  }
  if (!why.empty()) fail(query.id, why);
  if (layers == nullptr) return;
  layers->phases += tel->profile();
  if (!a.workers.empty()) {
    double mx = 0, sum = 0;
    for (const auto& wk : a.workers) {
      layers->steals += static_cast<double>(wk.steals);
      mx = std::max(mx, static_cast<double>(wk.processed));
      sum += static_cast<double>(wk.processed);
    }
    layers->worker_max += mx;
    layers->worker_mean += sum / static_cast<double>(a.workers.size());
  }
}

void Runner::pass(bool timed, bool traced) {
  const std::size_t n_items = n_setup_ + n_queries_ + n_calib_;
  std::vector<std::size_t> order(n_items);
  std::iota(order.begin(), order.end(), 0);
  if (timed) {
    for (std::size_t i = n_items; i > 1; --i) {
      std::swap(order[i - 1], order[order_rng_.below(static_cast<int>(i))]);
    }
  }
  Tracer& tr = tracer();
  tr.on = traced;
  const std::size_t span_begin = tr.spans.size();
  LayerPass layers;
  std::vector<double> calib;
  for (const std::size_t item : order) {
    tr.query = static_cast<std::uint32_t>(item);
    if (item >= n_setup_ + n_queries_) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t got = calibration_kernel();
      calib.push_back(static_cast<double>(now_ns() - t0));
      if (got != kCalibTransitions) fail("calibration", "wrong kernel result");
    } else if (item >= n_setup_) {
      run_query(item - n_setup_, timed, traced, traced ? &layers : nullptr);
    } else {
      const std::uint64_t t0 = now_ns();
      {
        Span root("bench.setup");
        w_.setup[item].run();
      }
      if (timed) {
        samples_[item].ns[traced ? 1 : 0].push_back(
            static_cast<double>(now_ns() - t0));
      }
    }
  }
  tr.on = false;
  if (!timed) return;
  calib_[traced ? 1 : 0].push_back(median(calib));
  if (traced) {
    fold_spans(tr.spans, span_begin, tr.spans.size(), layers);
    layers_.push_back(std::move(layers));
  }
}

std::vector<Metric> Runner::end_to_end() const {
  const std::vector<double> med = query_medians(0);
  const std::string over = " over " + std::to_string(passes_) + " passes";
  std::vector<Metric> out;

  const double wall = std::accumulate(med.begin(), med.end(), 0.0);
  double raw_wall = 0;
  for (std::size_t q = 0; q < n_queries_; ++q) raw_wall += raw_median(n_setup_ + q, 0);
  out.push_back({"wall_s", wall / 1e9, "s",
                 "sum of " + std::to_string(n_queries_) +
                     " per-query medians" + over + "; unscaled " +
                     fmt(raw_wall / 1e9) + " s"});

  double setup = 0, raw_setup = 0;
  for (std::size_t i = 0; i < n_setup_; ++i) {
    setup += scaled_median(i, 0);
    raw_setup += raw_median(i, 0);
  }
  out.push_back({"setup_s", setup / 1e9, "s",
                 "sum of " + std::to_string(n_setup_) + " per-call medians" +
                     over + "; unscaled " + fmt(raw_setup / 1e9) + " s"});

  std::vector<double> sorted = med;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  out.push_back({"verdict_ms_p50", median(med) / 1e6, "ms",
                 "median of n=" + std::to_string(n) + " per-query medians"});
  // The highest percentile with at least ten per-query times beyond it.
  double tail_p = 0.5;
  for (const double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (n >= rank + 10) {
      tail_p = p;
      break;
    }
  }
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(tail_p * static_cast<double>(n))));
  out.push_back({"verdict_ms_tail", sorted[rank - 1] / 1e6, "ms",
                 "p" + fmt(tail_p * 100) + " of n=" + std::to_string(n) +
                     " per-query medians, " + std::to_string(n - rank) +
                     " beyond"});
  out.push_back({"verdict_ok_frac",
                 ratio(static_cast<double>(attempted_ - failed_),
                       static_cast<double>(attempted_)),
                 "frac", "n=" + std::to_string(attempted_) + " query runs"});

  std::map<std::string, std::pair<double, std::size_t>> by_group;
  for (std::size_t q = 0; q < n_queries_; ++q) {
    auto& g = by_group[w_.queries[q].group];
    g.first += med[q];
    ++g.second;
  }
  std::vector<std::string> groups(std::begin(kModes), std::end(kModes));
  groups.push_back("parallel");
  for (const std::string& g : groups) {
    const auto it = by_group.find(g);
    const double ns = it == by_group.end() ? 0.0 : it->second.first;
    const std::size_t count = it == by_group.end() ? 0 : it->second.second;
    out.push_back({"mode_s." + g, ns / 1e9, "s",
                   "sum of " + std::to_string(count) + " per-query medians" +
                       over});
  }
  out.push_back({"peak_rss_mb", peak_rss_mib(), "MiB", "n=1 process"});
  return out;
}

std::vector<Metric> Runner::per_layer() const {
  std::vector<Metric> out;
  const std::string np =
      "median over n=" + std::to_string(layers_.size()) + " traced passes";
  auto layer_median = [&](auto&& get) {
    std::vector<double> v;
    for (const LayerPass& lp : layers_) v.push_back(get(lp));
    return median(v);
  };

  std::vector<std::string> span_names;
  for (const auto& [span, metric] : span_metrics()) {
    if (std::find(span_names.begin(), span_names.end(), metric) ==
        span_names.end()) {
      span_names.push_back(metric);
    }
  }
  for (const std::string& m : span_names) {
    out.push_back({m, layer_median([&](const LayerPass& lp) {
                     const auto it = lp.ms.find(m);
                     return it == lp.ms.end() ? 0.0 : it->second;
                   }),
                   "ms", "span self time, " + np});
  }
  out.push_back({"lang.parse_calls", layer_median([](const LayerPass& lp) {
                   return static_cast<double>(lp.parse_calls);
                 }),
                 "count", "exact, per traced pass"});
  for (const PhaseMetric& pm : kPhaseMetrics) {
    out.push_back({pm.name, layer_median([&](const LayerPass& lp) {
                     return static_cast<double>(lp.phases[pm.phase].ns) / 1e6;
                   }),
                   "ms", "phase profile, " + np});
  }
  out.push_back({"mc.parallel.steals",
                 layer_median([](const LayerPass& lp) { return lp.steals; }),
                 "count", "all parallel queries, " + np});
  out.push_back({"mc.parallel.imbalance", layer_median([](const LayerPass& lp) {
                   return ratio(lp.worker_max, lp.worker_mean);
                 }),
                 "ratio", "sum of max / sum of mean processed per worker, " + np});

  // Exact counts of one pass over the sequential queries (every run of a
  // query repeats them, or the run fails).
  std::map<std::string, Counts> by_mode;
  Counts all;
  for (std::size_t q = 0; q < n_queries_; ++q) {
    if (!counts_[q]) continue;
    const Counts& c = *counts_[q];
    Counts& m = by_mode[w_.queries[q].group];
    m.states += c.states;
    m.transitions += c.transitions;
    m.sleep_blocked += c.sleep_blocked;
    m.redundant += c.redundant;
    all.states += c.states;
    all.transitions += c.transitions;
    all.merged += c.merged;
    all.finals += c.finals;
    all.sleep_blocked += c.sleep_blocked;
    all.por_pruned += c.por_pruned;
    all.backtracks += c.backtracks;
    all.max_depth = std::max(all.max_depth, c.max_depth);
    all.peak_seen_bytes = std::max(all.peak_seen_bytes, c.peak_seen_bytes);
    all.enum_reused += c.enum_reused;
    all.enum_recomputed += c.enum_recomputed;
    all.candidates += c.candidates;
    all.valid += c.valid;
    all.rule_instances += c.rule_instances;
  }
  auto count = [&](const std::string& name, std::size_t v) {
    out.push_back({name, static_cast<double>(v), "count", "exact, one pass"});
  };
  auto exact_frac = [&](const std::string& name, double num, double den) {
    out.push_back({name, ratio(num, den), "frac", "exact, one pass"});
  };
  for (const char* mode : kModes) {
    const Counts& m = by_mode[mode];
    count(std::string("mc.states.") + mode, m.states);
    count(std::string("mc.transitions.") + mode, m.transitions);
    exact_frac(std::string("mc.useful_frac.") + mode,
               static_cast<double>(m.transitions) -
                   static_cast<double>(m.sleep_blocked + m.redundant),
               static_cast<double>(m.transitions));
  }
  count("mc.finals", all.finals);
  count("mc.sleep_blocked", all.sleep_blocked);
  count("mc.backtracks", all.backtracks);
  count("mc.por_pruned", all.por_pruned);
  count("mc.max_depth", all.max_depth);
  count("mc.truncated_queries",
        static_cast<std::size_t>(
            std::count(truncated_.begin(), truncated_.end(), true)));
  count("axiomatic.candidates", all.candidates);
  count("vcgen.rule_instances", all.rule_instances);
  exact_frac("mc.dedup_frac", static_cast<double>(all.merged),
             static_cast<double>(all.transitions));
  exact_frac("axiomatic.valid_frac", static_cast<double>(all.valid),
             static_cast<double>(all.candidates));
  exact_frac("interp.enum_reuse_frac", static_cast<double>(all.enum_reused),
             static_cast<double>(all.enum_reused + all.enum_recomputed));
  out.push_back({"mc.peak_seen_mb",
                 static_cast<double>(all.peak_seen_bytes) / (1024.0 * 1024.0),
                 "MiB", "max over queries, one pass"});

  const std::vector<double> untraced = query_medians(0);
  const std::vector<double> traced = query_medians(1);
  const double wall = std::accumulate(untraced.begin(), untraced.end(), 0.0);
  const double traced_wall = std::accumulate(traced.begin(), traced.end(), 0.0);
  out.push_back({"mc.states_per_s",
                 ratio(static_cast<double>(all.states), wall / 1e9), "1/s",
                 "states of one pass / untraced wall_s"});
  out.push_back({"obs.trace_overhead_frac", ratio(traced_wall, wall) - 1.0,
                 "frac",
                 "traced / untraced sum of " + std::to_string(n_queries_) +
                     " per-query medians over " + std::to_string(passes_) +
                     " pass pairs, minus 1"});
  return out;
}

void Runner::print(const std::vector<Metric>& metrics) const {
  std::printf(
      "# workload %s, seed %" PRIu64 ", trace %d: %zu queries, %zu set-up "
      "items, %zu calibration kernels per pass, %d passes\n",
      args_.workload.c_str(), args_.seed, args_.trace ? 1 : 0, n_queries_,
      n_setup_, n_calib_, passes_);
  std::printf("# times scaled to the reference host: median calibration %s ms "
              "vs reference %s ms\n",
              fmt(median(calib_[0]) / 1e6).c_str(),
              fmt(kCalibRefNs / 1e6).c_str());
  for (const Metric& m : metrics) {
    std::printf("%-36s %16s %-5s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.samples.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << fmt(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

int run(const Args& args) {
  Workload w;
  if (args.workload == "litmus_suite") w = make_litmus_suite(args.corpus);
  else if (args.workload == "peterson_proof") w = make_peterson_proof();
  else w = make_fuzz_rmw(args.seed);
  Runner r(args, std::move(w));
  r.run();
  if (args.trace) {
    r.print(r.per_layer());
    r.write_spans_file();
  } else {
    r.print(r.end_to_end());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ttv: " << e.what() << "\n";
    return 1;
  }
}
