/**
 * @file
 * Sharded-host infrastructure tests (sim/parallel): ShardMap
 * partition geometry, ShardPool fork-join epochs, the --host-par
 * task farm, and the end-to-end contract of the sharded host —
 * byte-identical stats JSON between --shards=1 (legacy single
 * wheel) and sharded runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/workloads.hh"
#include "sim/config.hh"
#include "sim/parallel/shard_map.hh"
#include "sim/parallel/shard_pool.hh"
#include "sim/parallel/task_farm.hh"

namespace minnow
{
namespace
{

TEST(ShardMap, PartitionIsContiguousAndCoversAllCores)
{
    parallel::ShardMap m(64, 4, 4);
    ASSERT_EQ(m.numShards(), 4u);
    std::uint32_t total = 0;
    for (std::uint32_t s = 0; s < m.numShards(); ++s) {
        EXPECT_EQ(m.firstCore(s), total);
        total += m.coresIn(s);
    }
    EXPECT_EQ(total, 64u);
    // shardOf agrees with the [firstCore, firstCore+coresIn) slices
    // and is monotone (contiguity).
    std::uint32_t prev = 0;
    for (std::uint32_t c = 0; c < 64; ++c) {
        std::uint32_t s = m.shardOf(c);
        EXPECT_GE(s, prev);
        EXPECT_GE(c, m.firstCore(s));
        EXPECT_LT(c, m.firstCore(s) + m.coresIn(s));
        prev = s;
    }
}

TEST(ShardMap, BoundariesAlignToEngineGroups)
{
    // 64 cores, 8-core engine groups, 3 shards: 8 groups split
    // 3/3/2 — every boundary is a multiple of 8 and an engine's
    // cores never straddle shards.
    parallel::ShardMap m(64, 8, 3);
    ASSERT_EQ(m.numShards(), 3u);
    for (std::uint32_t s = 0; s < m.numShards(); ++s)
        EXPECT_EQ(m.firstCore(s) % 8, 0u);
    EXPECT_EQ(m.coresIn(0), 24u);
    EXPECT_EQ(m.coresIn(1), 24u);
    EXPECT_EQ(m.coresIn(2), 16u);
    for (std::uint32_t c = 0; c < 64; ++c)
        EXPECT_EQ(m.shardOf(c), m.shardOf(c - c % 8));
}

TEST(ShardMap, ClampsShardsToEngineGroupCount)
{
    // 8 cores in 4-core groups = 2 groups; asking for 8 shards must
    // clamp to 2 so no shard is empty.
    parallel::ShardMap m(8, 4, 8);
    ASSERT_EQ(m.numShards(), 2u);
    EXPECT_EQ(m.coresIn(0), 4u);
    EXPECT_EQ(m.coresIn(1), 4u);
}

TEST(ShardPool, RunOnAllVisitsEveryLaneAndAdvancesEpochs)
{
    parallel::ShardPool pool(4);
    ASSERT_EQ(pool.lanes(), 4u);
    EXPECT_EQ(pool.epochs(), 0u);
    std::vector<std::atomic<std::uint32_t>> hits(4);
    for (int round = 0; round < 3; ++round) {
        pool.runOnAll([&](std::uint32_t lane) {
            hits[lane].fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (std::uint32_t l = 0; l < 4; ++l)
        EXPECT_EQ(hits[l].load(), 3u) << "lane " << l;
    EXPECT_EQ(pool.epochs(), 3u);
}

TEST(ShardPool, ClosingBarrierPublishesWorkerResults)
{
    // The closing barrier's happens-before edge must make plain
    // (non-atomic) worker writes visible to the leader.
    parallel::ShardPool pool(3);
    std::vector<std::uint64_t> out(3, 0);
    for (std::uint64_t round = 1; round <= 10; ++round) {
        pool.runOnAll(
            [&](std::uint32_t lane) { out[lane] = round * 100 + lane; });
        for (std::uint32_t l = 0; l < 3; ++l)
            ASSERT_EQ(out[l], round * 100 + l);
    }
}

TEST(TaskFarm, RunsEveryIndexExactlyOnce)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        std::vector<std::atomic<std::uint32_t>> hits(17);
        parallel::runTaskFarm(17, threads, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "threads=" << threads << " i=" << i;
    }
}

TEST(TaskFarm, InlineWhenSerialPreservesIndexOrder)
{
    std::vector<std::size_t> order;
    parallel::runTaskFarm(5, 1,
                          [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

/** Run one workload/config at a shard count; return stats JSON. */
std::string
runAt(const std::string &workload, harness::Config config,
      std::uint32_t shards)
{
    harness::Workload w = harness::makeWorkload(workload, 0.05, 7);
    harness::RunSpec spec;
    spec.config = config;
    spec.threads = 8;
    spec.machine.numCores = 8;
    spec.machine.shards = shards;
    auto r = harness::runExperiment(w, spec);
    EXPECT_TRUE(r.run.verified)
        << workload << " shards=" << shards;
    EXPECT_FALSE(r.run.statsJson.empty());
    return r.run.statsJson;
}

TEST(ShardedScheduler, SsspMinnowPfStatsByteIdenticalAcrossShards)
{
    std::string one = runAt("sssp", harness::Config::MinnowPf, 1);
    EXPECT_EQ(one, runAt("sssp", harness::Config::MinnowPf, 2));
    EXPECT_EQ(one, runAt("sssp", harness::Config::MinnowPf, 4));
}

TEST(ShardedScheduler, PrObimStatsByteIdenticalAcrossShards)
{
    std::string one = runAt("pr", harness::Config::Obim, 1);
    EXPECT_EQ(one, runAt("pr", harness::Config::Obim, 4));
}

} // anonymous namespace
} // namespace minnow
