// Per-worker work deques for the work-stealing explorers (the worker loop
// and termination bookkeeping around them live in mc/harness.hpp).
//
// Owners push to and pop from the back of their own deque (depth-first,
// cache-friendly); thieves take from other workers' fronts (breadth-ish,
// good load spread). A plain mutex per deque is enough — the critical
// sections are a couple of pointer moves, and contention concentrates on
// distinct deques.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace rc11::util {

template <class T>
class WorkDeques {
 public:
  explicit WorkDeques(std::size_t workers) : deques_(workers) {}

  [[nodiscard]] std::size_t worker_count() const { return deques_.size(); }

  /// Owner push to the back of `me`'s deque.
  void push_local(std::size_t me, T item) {
    std::lock_guard lock(deques_[me].mutex);
    deques_[me].items.push_back(std::move(item));
  }

  /// Owner pop from the back of `me`'s deque.
  [[nodiscard]] std::optional<T> pop_local(std::size_t me) {
    std::lock_guard lock(deques_[me].mutex);
    auto& q = deques_[me].items;
    if (q.empty()) return std::nullopt;
    T item = std::move(q.back());
    q.pop_back();
    return item;
  }

  /// Steal from the front of another worker's deque, scanning round-robin
  /// from `me + 1`.
  [[nodiscard]] std::optional<T> steal(std::size_t me) {
    const std::size_t n = deques_.size();
    for (std::size_t d = 1; d < n; ++d) {
      const std::size_t victim = (me + d) % n;
      std::lock_guard lock(deques_[victim].mutex);
      auto& q = deques_[victim].items;
      if (q.empty()) continue;
      T item = std::move(q.front());
      q.pop_front();
      return item;
    }
    return std::nullopt;
  }

 private:
  struct Deque {
    std::mutex mutex;
    std::deque<T> items;
  };

  std::vector<Deque> deques_;
};

}  // namespace rc11::util
