#include "calib.hpp"

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

// Three threads with five steps each over three shared cells and an
// accumulator; states are byte strings kept in a hash set, explored
// depth-first, then copied into an ordered map.
std::uint64_t calibration_kernel() {
  constexpr int kThreads = 3, kSteps = 6;
  std::unordered_set<std::string> seen;
  std::vector<std::string> stack;
  std::string init(kThreads + 4, '\0');
  seen.insert(init);
  stack.push_back(init);
  std::uint64_t transitions = 0;
  while (!stack.empty()) {
    const std::string s = std::move(stack.back());
    stack.pop_back();
    for (int t = 0; t < kThreads; ++t) {
      const int pc = s[static_cast<std::size_t>(t)];
      if (pc >= kSteps) continue;
      std::string n = s;
      const auto cell = static_cast<std::size_t>(kThreads + (t + pc) % 3);
      if (pc % 2 == 0) {
        n[cell] = static_cast<char>((n[cell] + t + 1) % 4);
      } else {
        n[kThreads + 3] = static_cast<char>((n[kThreads + 3] + n[cell]) % 5);
      }
      n[static_cast<std::size_t>(t)] = static_cast<char>(pc + 1);
      ++transitions;
      if (seen.insert(n).second) stack.push_back(std::move(n));
    }
  }
  std::map<std::string, int> ordered;
  for (const std::string& s : seen) ordered.emplace(s, 0);
  return transitions + ordered.size();
}

}  // namespace perfbench
