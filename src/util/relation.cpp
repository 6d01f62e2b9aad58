#include "util/relation.hpp"

#include <algorithm>
#include <sstream>

namespace rc11::util {

void Relation::push_back() {
  ++n_;
  rows_.emplace_back();
  if (inverse_) cols_.emplace_back();
}

void Relation::pop_back() {
  assert(n_ > 0);
  const std::size_t e = n_ - 1;
  if (inverse_) {
    cols_[e].for_each([&](std::size_t a) { rows_[a].reset(e); });
    rows_[e].for_each([&](std::size_t b) { cols_[b].reset(e); });
    cols_.pop_back();
  }
  // A pair left into e would reappear as a pair into the next element
  // pushed at index e.
  assert(std::none_of(rows_.begin(), rows_.end() - 1,
                      [&](const Bitset& r) { return r.test(e); }));
  rows_.pop_back();
  --n_;
}

void Relation::enable_inverse() {
  if (inverse_) return;
  inverse_ = true;
  rebuild_inverse();
}

void Relation::rebuild_inverse() {
  if (!inverse_) return;
  cols_.assign(n_, Bitset(n_));
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { cols_[b].set(a); });
  }
}

Bitset Relation::column(std::size_t b) const {
  if (inverse_) {
    Bitset out = cols_[b];
    out.resize(n_);
    return out;
  }
  // O(n)-scan fallback — audited: no engine hot path lands here. The
  // incremental semantics keeps maintained inverses on hb/eco and reads
  // them through column_view(); mo predecessor queries scan only the
  // per-variable write set (Execution::push_event). This copy form is for
  // tests, diagnostics, and one-shot cold paths.
  Bitset out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    if (rows_[a].test(b)) out.set(a);
  }
  return out;
}

std::size_t Relation::pair_count() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.count();
  return n;
}

bool Relation::empty() const {
  for (const auto& r : rows_) {
    if (!r.empty()) return false;
  }
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> Relation::pairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.emplace_back(a, b); });
  }
  return out;
}

Relation& Relation::operator|=(const Relation& o) {
  for (std::size_t a = 0; a < n_; ++a) rows_[a] |= o.rows_[a];
  rebuild_inverse();
  return *this;
}

Relation& Relation::operator&=(const Relation& o) {
  for (std::size_t a = 0; a < n_; ++a) rows_[a] &= o.rows_[a];
  rebuild_inverse();
  return *this;
}

Relation& Relation::subtract(const Relation& o) {
  for (std::size_t a = 0; a < n_; ++a) rows_[a].subtract(o.rows_[a]);
  rebuild_inverse();
  return *this;
}

Relation Relation::compose(const Relation& o) const {
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.rows_[a] |= o.rows_[b]; });
  }
  return out;
}

Relation Relation::inverse_compose(const Relation& o) const {
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    if (o.rows_[a].empty()) continue;
    rows_[a].for_each([&](std::size_t b) { out.rows_[b] |= o.rows_[a]; });
  }
  return out;
}

Relation Relation::inverse() const {
  Relation out(n_);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { out.rows_[b].set(a); });
  }
  return out;
}

Relation Relation::restrict_to(const Bitset& s) const {
  Relation out(n_);
  s.for_each([&](std::size_t a) {
    out.rows_[a] = rows_[a];
    out.rows_[a] &= s;
  });
  return out;
}

Relation Relation::transitive_closure() const {
  Relation out = *this;
  if (const auto order = topological_order()) {
    // Acyclic fast path (sb/hb/eco of consistent executions): sweep in
    // reverse topological order, so every direct successor's out-row is
    // already its full closure when it is OR-ed in — each row is
    // finalized by exactly one word-level union pass.
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const std::size_t a = *it;
      rows_[a].for_each([&](std::size_t b) { out.rows_[a] |= out.rows_[b]; });
    }
    out.rebuild_inverse();
    return out;
  }
  // Cyclic fallback: dirty-row worklist fixpoint. A pass only recomputes
  // rows adjacent to the previous pass's changed set; because that filter
  // is a heuristic (a row can transitively gain successors through a
  // stable neighbor), quiescence is certified by one full unfiltered pass,
  // repeating if the certification pass itself makes progress.
  Bitset changed(n_);
  changed.fill();
  Bitset next_changed(n_);
  Bitset next;  // scratch row, reused so the loop does not allocate
  while (true) {
    bool any = true;
    while (any) {
      any = false;
      next_changed.clear();
      for (std::size_t a = 0; a < n_; ++a) {
        if (out.rows_[a].disjoint(changed)) continue;
        next = out.rows_[a];
        out.rows_[a].for_each([&](std::size_t b) { next |= out.rows_[b]; });
        if (!(next == out.rows_[a])) {
          out.rows_[a] = next;
          next_changed.set(a);
          any = true;
        }
      }
      changed = next_changed;
    }
    bool clean = true;
    changed.clear();
    for (std::size_t a = 0; a < n_; ++a) {
      next = out.rows_[a];
      out.rows_[a].for_each([&](std::size_t b) { next |= out.rows_[b]; });
      if (!(next == out.rows_[a])) {
        out.rows_[a] = next;
        changed.set(a);
        clean = false;
      }
    }
    if (clean) break;
  }
  out.rebuild_inverse();
  return out;
}

Relation Relation::reflexive_transitive_closure() const {
  Relation out = transitive_closure();
  out.add_identity();
  return out;
}

Relation Relation::reflexive_closure() const {
  Relation out = *this;
  out.add_identity();
  return out;
}

void Relation::add_identity() {
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].set_widening(a);
    if (inverse_) cols_[a].set_widening(a);
  }
}

void Relation::remove_identity() {
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].reset(a);
    if (inverse_) cols_[a].reset(a);
  }
}

bool Relation::is_irreflexive() const {
  for (std::size_t a = 0; a < n_; ++a) {
    if (rows_[a].test(a)) return false;
  }
  return true;
}

bool Relation::is_acyclic() const {
  // Kahn peeling succeeds exactly on acyclic graphs; this replaces the
  // old build-the-closure check, which was the validity-check hot spot.
  return topological_order().has_value();
}

bool Relation::is_strict_total_order_on(const Bitset& s) const {
  const Relation r = restrict_to(s);
  if (!r.is_irreflexive()) return false;
  // Transitivity: r;r must be contained in r.
  const Relation rr = r.compose(r);
  for (std::size_t a = 0; a < n_; ++a) {
    if (!rr.rows_[a].subset_of(r.rows_[a])) return false;
  }
  // Totality on s.
  std::vector<std::size_t> elems = s.elements();
  for (std::size_t i = 0; i < elems.size(); ++i) {
    for (std::size_t j = i + 1; j < elems.size(); ++j) {
      if (!r.contains(elems[i], elems[j]) && !r.contains(elems[j], elems[i])) {
        return false;
      }
    }
  }
  return true;
}

std::optional<std::vector<std::size_t>> Relation::topological_order() const {
  std::vector<std::size_t> indeg(n_, 0);
  for (std::size_t a = 0; a < n_; ++a) {
    rows_[a].for_each([&](std::size_t b) { ++indeg[b]; });
  }
  std::vector<std::size_t> ready;
  for (std::size_t a = 0; a < n_; ++a) {
    if (indeg[a] == 0) ready.push_back(a);
  }
  std::vector<std::size_t> out;
  out.reserve(n_);
  while (!ready.empty()) {
    const std::size_t a = ready.back();
    ready.pop_back();
    out.push_back(a);
    rows_[a].for_each([&](std::size_t b) {
      if (--indeg[b] == 0) ready.push_back(b);
    });
  }
  if (out.size() != n_) return std::nullopt;
  return out;
}

Bitset Relation::reachable_from(std::size_t a) const {
  Bitset seen(n_);
  std::vector<std::size_t> stack;
  rows_[a].for_each([&](std::size_t b) {
    seen.set(b);
    stack.push_back(b);
  });
  while (!stack.empty()) {
    const std::size_t b = stack.back();
    stack.pop_back();
    rows_[b].for_each([&](std::size_t c) {
      if (!seen.test(c)) {
        seen.set(c);
        stack.push_back(c);
      }
    });
  }
  return seen;
}

std::size_t Relation::hash() const {
  std::size_t h = 14695981039346656037ull ^ n_;
  for (const auto& r : rows_) {
    h ^= r.hash();
    h *= 1099511628211ull;
  }
  return h;
}

std::string Relation::to_string() const {
  std::ostringstream os;
  os << '{';
  bool sep = false;
  for (auto [a, b] : pairs()) {
    if (sep) os << ", ";
    os << '(' << a << ',' << b << ')';
    sep = true;
  }
  os << '}';
  return os.str();
}

}  // namespace rc11::util
