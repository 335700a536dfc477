/**
 * @file
 * Sense-reversing epoch barrier for the shard host-thread pool.
 *
 * All shard threads (the weave leader plus the pool workers) arrive;
 * the last arrival opens the next epoch and wakes the rest. The
 * epoch counter's release/acquire pair is the happens-before edge
 * the sharded simulator leans on: everything a thread wrote before
 * arriving is visible to every thread after the barrier, which is
 * what lets pool workers read simulation state during a bound phase
 * without any per-field synchronization (the leader is parked at the
 * closing barrier and mutates nothing meanwhile).
 *
 * Waiting spins briefly (epochs are short — one sampling interval)
 * and then parks on the futex-backed std::atomic wait. Per-lane wait
 * time is accumulated so shard imbalance is visible in hostprof's
 * barrierWaitNs class.
 */

#ifndef MINNOW_SIM_PARALLEL_EPOCH_BARRIER_HH
#define MINNOW_SIM_PARALLEL_EPOCH_BARRIER_HH

#include <atomic>
#include <cstdint>
#include <vector>

namespace minnow::parallel
{

/** Reusable barrier over a fixed set of participant lanes. */
class EpochBarrier
{
  public:
    explicit EpochBarrier(std::uint32_t lanes);

    EpochBarrier(const EpochBarrier &) = delete;
    EpochBarrier &operator=(const EpochBarrier &) = delete;

    /**
     * Block until every lane has arrived at the current epoch.
     * Time spent waiting is accrued to @p lane.
     */
    void arriveAndWait(std::uint32_t lane);

    /** Epochs completed so far. */
    std::uint64_t
    epoch() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /**
     * Host nanoseconds @p lane has spent blocked at this barrier.
     * Relaxed: the hostprof barrierWaitNs formula reads these on
     * the leader while other lanes may still be updating their own
     * counters; a momentarily stale value is fine for a
     * profile, a data race is not.
     */
    std::uint64_t
    waitNs(std::uint32_t lane) const
    {
        return waitNs_[lane].ns.load(std::memory_order_relaxed);
    }

  private:
    /** Iterations of busy-polling before parking on the futex. */
    static constexpr std::uint32_t kSpinIters = 4096;

    struct alignas(64) LaneWait
    {
        std::atomic<std::uint64_t> ns{0};
    };

    std::uint32_t lanes_;
    std::atomic<std::uint32_t> arrived_{0};
    std::atomic<std::uint64_t> epoch_{0};
    std::vector<LaneWait> waitNs_;
};

} // namespace minnow::parallel

#endif // MINNOW_SIM_PARALLEL_EPOCH_BARRIER_HH
