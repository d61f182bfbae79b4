// Operator-new call counting for the bench binaries that link
// alloc_count.cpp (bench_million_node's zero-allocation gate and
// bench_engine_micro's BM_Prepare rows). The replacement operators live in
// their own translation unit, away from the code they count.
#pragma once

#include <cstdint>

namespace rise::bench {

/// operator new calls (every form) since the program started.
std::uint64_t allocations();

}  // namespace rise::bench
