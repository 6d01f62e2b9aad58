// State-space bookkeeping: fingerprint deduplication, parent-pointer
// records, and statistics.
//
// Two interleavings of independent steps reach isomorphic configurations
// (Propositions 2.3 / 4.1); the 128-bit fingerprint of the canonical form
// (Config::fingerprint) identifies them, so the explorer visits each
// configuration once. Each visited state gets a compact StateId and a
// StateRecord carrying its fingerprint plus a parent pointer (predecessor
// StateId and the index of the successor step that produced it), from which
// both the sequential and the work-stealing parallel explorer reconstruct
// counterexample traces by deterministic replay (enumerate_steps lists
// steps in a fixed order).
//
// StateIds are 64-bit and records live in a *paged* store (a root array of
// doubling blocks, first page 64 records), so (a) the id space is no
// longer capped at 4B states (partial-order-reduced but deep runs can
// exceed 32 bits), (b) growth never copies existing records (no 2x realloc
// spike at the worst moment), and (c) record addresses are stable, which
// the concurrent variant relies on for lock-copy reads while other threads
// append.
//
// SeenSet is a single-threaded open-addressing table; ConcurrentSeenSet
// shards the same layout 16 ways with per-shard locks for the parallel
// explorer. Cost is sizeof(StateRecord) = 32 bytes per state of records
// plus ~16 bytes per state of index slots at the 50% load cap — versus the
// hundreds of bytes per state of the std::string canonical keys they
// replaced (StringSeenSet, kept for the bench_mc_scaling footprint
// ablation).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/fingerprint.hpp"

namespace rc11::mc {

struct ExploreStats {
  std::size_t states = 0;       ///< unique configurations visited
  std::size_t transitions = 0;  ///< transitions generated
  std::size_t merged = 0;       ///< successors deduplicated away
  std::size_t finals = 0;       ///< terminated configurations
  std::size_t max_depth = 0;    ///< deepest DFS path
  std::size_t peak_seen_bytes = 0;  ///< seen-set footprint at peak
  std::size_t por_pruned = 0;   ///< transitions pruned by the POR layer
  std::size_t backtracks = 0;   ///< DPOR backtrack points inserted
  /// Executions started and then killed by the sleep filter: tree nodes
  /// whose every enabled transition was asleep (the prefix explored to
  /// reach them was redundant). Nonzero only under the stateless DPOR
  /// engines; the optimal wakeup-tree modes keep it at zero by
  /// construction (tests/test_dpor.cpp asserts this on the catalogue).
  std::size_t sleep_blocked = 0;
  /// Maximal traces the tree-shaped DPOR engines ran to completion
  /// (terminated leaves; duplicate final *states* included — this counts
  /// explored interleavings, not unique outcomes like `finals`). The
  /// optimality theorem speaks in this currency: the wakeup-tree modes
  /// complete at most one trace per Mazurkiewicz class, so their count
  /// never exceeds stateless source-set DPOR's on the same program. Raw
  /// `transitions` obeys no such bound — two optimal runs covering the
  /// same classes can differ in how their representatives share
  /// prefixes. Zero under the deduplicating graph explorers.
  std::size_t complete_traces = 0;
  /// Transitions executed from a configuration that — itself or via an
  /// ancestor on its spine — had already been visited when reached: the
  /// re-explored shared suffixes of the tree-shaped DPOR engines. The
  /// deduplicating graph explorers merge duplicates instead of
  /// re-expanding them, so they always report zero here.
  std::size_t redundant_transitions = 0;
  /// Step-enumeration cache behaviour (interp::enumerate_steps): per
  /// (enumeration, thread) pair, whether the thread's cached transition
  /// slice was spliced (`reused`) or had to be re-enumerated
  /// (`recomputed`). Deterministic for the sequential engines; on the
  /// catalogue reused should dominate (the cache is the point).
  std::size_t enum_threads_reused = 0;
  std::size_t enum_threads_recomputed = 0;
  bool truncated = false;       ///< hit max_states

  /// Merges another run's (or worker's) stats into this one: counters add,
  /// `max_depth` takes the max, `truncated` ORs. `peak_seen_bytes` adds —
  /// correct when the operands are disjoint runs or per-worker slabs whose
  /// shared-structure footprint is recorded on exactly one side; callers
  /// merging workers of one run set it once on the destination afterwards.
  ExploreStats& operator+=(const ExploreStats& o) {
    states += o.states;
    transitions += o.transitions;
    merged += o.merged;
    finals += o.finals;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    peak_seen_bytes += o.peak_seen_bytes;
    por_pruned += o.por_pruned;
    backtracks += o.backtracks;
    sleep_blocked += o.sleep_blocked;
    complete_traces += o.complete_traces;
    redundant_transitions += o.redundant_transitions;
    enum_threads_reused += o.enum_threads_reused;
    enum_threads_recomputed += o.enum_threads_recomputed;
    truncated = truncated || o.truncated;
    return *this;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Per-worker counters of one parallel run (work-stealing explorers).
struct WorkerStats {
  std::size_t processed = 0;  ///< states expanded by this worker
  std::size_t enqueued = 0;   ///< fresh successors pushed to its own deque
  std::size_t steals = 0;     ///< items taken from another worker's deque
  std::size_t merged = 0;     ///< successors deduplicated away
  /// Step-enumeration cache behaviour attributed to this worker (the
  /// thread_local interp counters are flushed per worker, so the split
  /// survives steal handoffs; tests pin sum-over-workers == engine total).
  std::size_t enum_reused = 0;
  std::size_t enum_recomputed = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Dense index of a visited state within a (Concurrent)SeenSet.
using StateId = std::uint64_t;
inline constexpr StateId kNoState = ~StateId{0};

/// Per-state record: identity plus the incoming edge used for trace
/// reconstruction (`step` indexes into enumerate_steps(parent)).
struct StateRecord {
  util::Fingerprint fp;
  StateId parent = kNoState;
  std::uint32_t step = 0;
};

struct InsertResult {
  StateId id = kNoState;
  bool inserted = false;  ///< true iff the fingerprint was new
};

/// Append-only paged array of StateRecords: the classic root array of
/// doubling blocks. Page p holds 64 << p records, so a litmus-scale run
/// costs one 2 KiB page while the overshoot stays below 2x at any scale —
/// and unlike a std::vector, growth never copies existing records (no 2x
/// realloc spike at the worst moment; addresses are stable, which the
/// concurrent seen set's lock-copy reads rely on). Indexing is O(1) via
/// bit_width.
class PagedRecordStore {
 public:
  static constexpr std::size_t kFirstPageBits = 6;  // 64 records

  /// Appends and returns the new record's dense id.
  StateId push(const StateRecord& rec) {
    if (size_ == capacity_) {
      const std::size_t page_size = std::size_t{1}
                                    << (kFirstPageBits + pages_.size());
      pages_.push_back(std::make_unique<StateRecord[]>(page_size));
      capacity_ += page_size;
    }
    const auto [page, offset] = locate(size_);
    pages_[page][offset] = rec;
    return size_++;
  }

  [[nodiscard]] const StateRecord& operator[](StateId id) const {
    const auto [page, offset] = locate(id);
    return pages_[page][offset];
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::size_t bytes() const {
    return capacity_ * sizeof(StateRecord) +
           pages_.capacity() * sizeof(pages_[0]);
  }

 private:
  /// id 0 lives at page 0 offset 0; biasing by the first page size makes
  /// the page index the position of the id's highest bit.
  static std::pair<std::size_t, std::size_t> locate(StateId id) {
    const StateId biased = id + (StateId{1} << kFirstPageBits);
    const int width = std::bit_width(biased);
    const std::size_t page =
        static_cast<std::size_t>(width) - (kFirstPageBits + 1);
    const std::size_t offset =
        static_cast<std::size_t>(biased - (StateId{1} << (width - 1)));
    return {page, offset};
  }

  std::vector<std::unique_ptr<StateRecord[]>> pages_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Insert-only open-addressing table over fingerprints (single-threaded).
class SeenSet {
 public:
  SeenSet() { rehash(kInitialSlots); }

  /// Inserts fp with its incoming edge; on a duplicate returns the existing
  /// state's id (the first-discovered parent wins, keeping traces acyclic).
  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0);

  [[nodiscard]] const StateRecord& record(StateId id) const {
    return records_[id];
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Current footprint: record pages plus index slots.
  [[nodiscard]] std::size_t bytes() const {
    return records_.bytes() + slots_.capacity() * sizeof(StateId);
  }

  /// Caps the number of records; insert() throws std::length_error past it
  /// instead of handing out ids that collide with kNoState
  /// (ConcurrentSeenSet lowers it per shard to keep room for its shard
  /// bits).
  void set_max_states(StateId n) { max_states_ = n; }

 private:
  // Power of two. Kept small: every per-program explorer run constructs a
  // seen set (16 of them when sharded), so the empty-table footprint is
  // part of peak_seen_bytes on litmus-scale workloads; the 50% load cap
  // doubles it within a handful of inserts anyway.
  static constexpr std::size_t kInitialSlots = 64;

  void rehash(std::size_t new_slot_count);

  PagedRecordStore records_;
  std::vector<StateId> slots_;  ///< record id + 1; 0 = empty
  std::size_t mask_ = 0;
  StateId max_states_ = kNoState;  ///< ids stay below the sentinel
};

/// Sharded, mutex-guarded variant for the work-stealing parallel explorer.
/// StateIds encode the shard in the low bits, so records can be resolved
/// without a global lock. Insertion contention is one short critical
/// section on 1 of 16 shards.
class ConcurrentSeenSet {
 public:
  ConcurrentSeenSet() {
    for (auto& s : shards_) s.set_max_states(kNoState >> kShardBits);
  }

  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0) {
    const std::size_t shard = fp.shard_bits() & (kShards - 1);
    std::lock_guard lock(mutexes_[shard]);
    InsertResult r = shards_[shard].insert(fp, parent, step);
    r.id = encode(r.id, shard);
    return r;
  }

  /// Copy of the record for `id` (copied because other threads may append
  /// to the shard's page table concurrently).
  [[nodiscard]] StateRecord record(StateId id) const {
    const std::size_t shard = id & (kShards - 1);
    std::lock_guard lock(mutexes_[shard]);
    return shards_[shard].record(id >> kShardBits);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard lock(mutexes_[i]);
      n += shards_[i].size();
    }
    return n;
  }

  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard lock(mutexes_[i]);
      n += shards_[i].bytes();
    }
    return n;
  }

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1 << kShardBits;

  static StateId encode(StateId local, std::size_t shard) {
    return (local << kShardBits) | static_cast<StateId>(shard);
  }

  mutable std::array<std::mutex, kShards> mutexes_;
  std::array<SeenSet, kShards> shards_;
};

/// Dispatches between SeenSet and ConcurrentSeenSet by worker count, so
/// single-worker runs of the DPOR/optimal/parallel engines do not pay the
/// 16-shard fixed footprint (16 empty tables + 16 first pages ≈ a quarter
/// megabyte per explored program) or the per-insert lock. The parallel
/// explorers construct one per run; the StateId encoding follows the
/// backing store (shard bits only in sharded mode).
class AdaptiveSeenSet {
 public:
  explicit AdaptiveSeenSet(std::size_t workers) : sharded_(workers > 1) {
    if (sharded_) concurrent_.emplace();
  }

  InsertResult insert(const util::Fingerprint& fp, StateId parent = kNoState,
                      std::uint32_t step = 0) {
    if (sharded_) return concurrent_->insert(fp, parent, step);
    return flat_.insert(fp, parent, step);
  }

  /// Copy of the record for `id` (by value: in sharded mode other threads
  /// may append to the page table concurrently).
  [[nodiscard]] StateRecord record(StateId id) const {
    if (sharded_) return concurrent_->record(id);
    return flat_.record(id);
  }

  [[nodiscard]] std::size_t size() const {
    return sharded_ ? concurrent_->size() : flat_.size();
  }

  [[nodiscard]] std::size_t bytes() const {
    return sharded_ ? concurrent_->bytes() : flat_.bytes();
  }

 private:
  bool sharded_;
  SeenSet flat_;  ///< used when single-threaded (empty otherwise: ~1 KiB)
  std::optional<ConcurrentSeenSet> concurrent_;
};

/// The pre-fingerprint design: canonical keys as std::strings in a node-based
/// hash set. Kept only so bench_mc_scaling can measure the bytes-per-state
/// reduction of the fingerprint tables against it.
class StringSeenSet {
 public:
  bool insert(const std::string& key) {
    const bool added = set_.insert(key).second;
    if (added) key_bytes_ += key.capacity() + kNodeOverhead;
    return added;
  }

  [[nodiscard]] std::size_t size() const { return set_.size(); }

  /// Footprint estimate: key payloads + per-node allocation overhead +
  /// bucket array.
  [[nodiscard]] std::size_t bytes() const {
    return key_bytes_ + set_.bucket_count() * sizeof(void*);
  }

 private:
  // std::string header + hash-node header (next pointer, cached hash);
  // a conservative estimate of libstdc++'s per-element cost.
  static constexpr std::size_t kNodeOverhead =
      sizeof(std::string) + 2 * sizeof(void*);

  std::unordered_set<std::string> set_;
  std::size_t key_bytes_ = 0;
};

}  // namespace rc11::mc
