// Conforming twin of host_threading_bad.cc: must produce zero
// findings. Exercises the rule's negative space — cross-thread work
// expressed through the task farm, project types that merely
// resemble banned names, and unqualified identifiers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture
{

// The sanctioned shape: independent points handed to the farm, each
// writing only its own result slot, read back in point order after
// the join. (The declaration stands in for the sim/parallel include
// so the fixture lints standalone.)
void runTaskFarmLike(std::size_t n, std::uint32_t threads,
                     const std::function<void(std::size_t)> &fn);

std::vector<int>
sweepPoints(std::size_t n, std::uint32_t threads)
{
    std::vector<int> results(n);
    runTaskFarmLike(n, threads,
                    [&](std::size_t i) { results[i] = int(i); });
    return results;
}

// Project types named like banned primitives, without std::
// qualification, must not trip the ban list.
struct barrier
{
    int phase = 0;
};

struct future
{
    int value = 0;
};

barrier epochBoundary;
future pendingResult;

// An identifier that merely starts with "atomic" but is not
// std::-qualified is fine too.
int atomicityBudget = 3;

} // namespace fixture
