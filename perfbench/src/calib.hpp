// Host-speed calibration kernel.
//
// Co-tenants on a shared host slow this benchmark by up to a third for
// seconds to minutes at a time, and the slowdown hits allocation- and
// branch-heavy code (the checker) far more than plain arithmetic. So every
// pass also times this fixed kernel -- a small explicit-state search
// written with the standard library only, the same kind of work as the
// checker but none of its code -- and the harness scales the pass's query
// times by kCalibRefNs / (the kernel's median time in that pass). No change
// to the checker can move the kernel.
#pragma once

#include <cstdint>

namespace perfbench {

// Median kernel time on an idle reference host (4-core x86-64 VM at
// 2.1 GHz). Scaled times read as seconds on that host.
inline constexpr double kCalibRefNs = 0.8e6;

// Runs the kernel once; returns its (fixed) transition count.
std::uint64_t calibration_kernel();

// What calibration_kernel() must return.
inline constexpr std::uint64_t kCalibTransitions = 4853;

}  // namespace perfbench
