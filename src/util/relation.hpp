// Binary relations over a dense universe {0, ..., n-1}.
//
// A Relation is an adjacency-matrix of Bitset rows. This is the workhorse of
// the C11 semantics: sb, rf, mo and all derived relations (sw, hb, fr, eco)
// are Relations, and validity checking reduces to closure / irreflexivity /
// totality queries on them.
//
// size() is the universe. A row (and a maintained column) keeps its own
// Bitset width, which need not match the universe: a row widens only when
// a bit is written past it, and bits past a row's width read as zero —
// every Bitset kernel is width-tolerant and row equality ignores widths.
// That is what makes push_back/pop_back cost O(degree) instead of
// touching every row: the incremental semantics grows and shrinks
// executions one event at a time, and every edge it adds or undoes is
// incident to that event.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bitset.hpp"

namespace rc11::util {

/// A binary relation R over {0..n-1}; row i is the set { j | (i,j) in R }.
class Relation {
 public:
  Relation() = default;

  /// Empty relation over an n-element universe.
  explicit Relation(std::size_t n) : n_(n), rows_(n, Bitset(n)) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Grows the universe by one element with an empty row (and column).
  /// No other row is touched.
  void push_back();

  /// Shrinks the universe by its last element e. With the inverse
  /// maintained, the pairs incident to e are cleared here through e's row
  /// and column — O(degree of e). Without it, the caller must already have
  /// removed every pair into e (pairs out of e leave with its row).
  void pop_back();

  [[nodiscard]] bool contains(std::size_t a, std::size_t b) const {
    return rows_[a].test(b);
  }

  void add(std::size_t a, std::size_t b) {
    rows_[a].set_widening(b);
    if (inverse_) cols_[b].set_widening(a);
  }
  void remove(std::size_t a, std::size_t b) {
    rows_[a].reset(b);
    if (inverse_) cols_[b].reset(a);
  }

  /// Batch column write: adds (a, b) for every a in `as` (a Bitset over
  /// the same universe). With the inverse maintained, the mirror update is
  /// a single word-level union instead of one set() per predecessor.
  void add_to_column(std::size_t b, const Bitset& as) {
    as.for_each([&](std::size_t a) { rows_[a].set_widening(b); });
    if (inverse_) cols_[b] |= as;
  }

  /// Batch row write: adds (a, b) for every b in `bs` — the row side is a
  /// single word-level union.
  void add_to_row(std::size_t a, const Bitset& bs) {
    rows_[a] |= bs;
    if (inverse_) {
      bs.for_each([&](std::size_t b) { cols_[b].set_widening(a); });
    }
  }

  /// Row a: successors of a. Its width is its own (see the file comment):
  /// read it through the width-tolerant Bitset kernels. The mutable
  /// overload widens the row to the universe first, so callers may set
  /// any bit below size(); it bypasses inverse maintenance and asserts it
  /// is off.
  [[nodiscard]] const Bitset& row(std::size_t a) const { return rows_[a]; }
  [[nodiscard]] Bitset& row(std::size_t a) {
    assert(!inverse_);
    if (rows_[a].size() < n_) rows_[a].resize(n_);
    return rows_[a];
  }

  /// Column b: predecessors of b, as a set of width size() (O(n) scan, or
  /// a copy of the maintained inverse row when enabled). Hot paths must
  /// enable_inverse() and use column_view() instead — the scan form is for
  /// tests and cold diagnostics only (see the audit note in relation.cpp).
  [[nodiscard]] Bitset column(std::size_t b) const;

  // --- Maintained inverse ---------------------------------------------------
  //
  // With the inverse enabled the relation keeps a column mirror updated by
  // add/remove/push_back/pop_back (bulk mutators rebuild it), so
  // predecessor queries on the observability hot path are O(1) row
  // accesses instead of O(n) scans.

  void enable_inverse();
  [[nodiscard]] bool inverse_enabled() const { return inverse_; }

  /// Column b as a view of the maintained mirror (its own width, like a
  /// row); requires enable_inverse().
  [[nodiscard]] const Bitset& column_view(std::size_t b) const {
    assert(inverse_);
    return cols_[b];
  }

  /// Heap bytes held by all row (and mirror column) representations —
  /// dense-vs-sparse footprint comparisons in benches.
  [[nodiscard]] std::size_t storage_bytes() const {
    std::size_t b = (rows_.capacity() + cols_.capacity()) * sizeof(Bitset);
    for (const Bitset& r : rows_) b += r.storage_bytes();
    for (const Bitset& c : cols_) b += c.storage_bytes();
    return b;
  }

  /// Number of pairs.
  [[nodiscard]] std::size_t pair_count() const;

  [[nodiscard]] bool empty() const;

  /// All pairs (a, b) in lexicographic order.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> pairs() const;

  /// Union, intersection, difference, composition, inverse.
  Relation& operator|=(const Relation& o);
  Relation& operator&=(const Relation& o);
  Relation& subtract(const Relation& o);
  friend Relation operator|(Relation a, const Relation& b) { return a |= b; }
  friend Relation operator&(Relation a, const Relation& b) { return a &= b; }

  /// Relational composition this ; o = { (a,c) | ex b. aRb and bOc }.
  [[nodiscard]] Relation compose(const Relation& o) const;

  /// this^{-1} ; o = { (b,c) | ex a. aRb and aOc }, computed as a
  /// predecessor join over rows without materializing the inverse: for
  /// every pair (a,b) of this, o's row a is OR-ed into the output row b
  /// in one word-level sweep. This is the fr = rf^{-1};mo kernel.
  [[nodiscard]] Relation inverse_compose(const Relation& o) const;

  [[nodiscard]] Relation inverse() const;

  /// Restriction to a subset S of the universe (same universe size;
  /// pairs with an endpoint outside S are dropped).
  [[nodiscard]] Relation restrict_to(const Bitset& s) const;

  /// Transitive closure R+. Acyclic inputs (the common case: sb, hb, eco
  /// of consistent executions) take a one-pass reverse-topological sweep;
  /// cyclic inputs fall back to a dirty-row worklist fixpoint certified by
  /// a full pass.
  [[nodiscard]] Relation transitive_closure() const;

  /// Reflexive-transitive closure R*.
  [[nodiscard]] Relation reflexive_transitive_closure() const;

  /// Reflexive closure R?.
  [[nodiscard]] Relation reflexive_closure() const;

  /// Adds the identity pairs in place.
  void add_identity();

  /// Removes the identity pairs in place.
  void remove_identity();

  [[nodiscard]] bool is_irreflexive() const;

  /// True iff there is no cycle (Kahn peeling; no closure is built).
  [[nodiscard]] bool is_acyclic() const;

  /// True iff the restriction of R to S is a strict total order on S,
  /// i.e. irreflexive, transitive, and any two distinct elements of S
  /// are related one way or the other.
  [[nodiscard]] bool is_strict_total_order_on(const Bitset& s) const;

  /// A topological ordering of the universe consistent with R, or
  /// std::nullopt if R is cyclic. Only elements related by R constrain the
  /// order; all universe elements appear in the result.
  [[nodiscard]] std::optional<std::vector<std::size_t>> topological_order()
      const;

  /// Successors of a under the transitive closure, computed by BFS from a
  /// without building the full closure (used for reachability queries).
  [[nodiscard]] Bitset reachable_from(std::size_t a) const;

  /// Same universe and pairs; row widths do not matter.
  [[nodiscard]] bool operator==(const Relation& o) const {
    return n_ == o.n_ && rows_ == o.rows_;
  }

  /// Hash of the universe size and pairs (independent of row widths).
  [[nodiscard]] std::size_t hash() const;

  /// Renders e.g. "{(0,1), (2,3)}".
  [[nodiscard]] std::string to_string() const;

 private:
  void rebuild_inverse();

  std::size_t n_ = 0;
  bool inverse_ = false;
  std::vector<Bitset> rows_;
  std::vector<Bitset> cols_;  ///< column mirror, maintained when inverse_
};

}  // namespace rc11::util
