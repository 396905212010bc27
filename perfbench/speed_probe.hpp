// Host speed probe for the benchmark (README.md, "Speed scaling").
#pragma once

#include <vector>

namespace perfbench {

/// Mean thread-CPU nanoseconds per iteration of a fixed integer kernel
/// (eight interleaved multiply-add chains, ~0.2 s), run at once on each
/// of `cpus`, one thread pinned to each.
double probe_ns(const std::vector<int>& cpus);

}  // namespace perfbench
