/**
 * @file
 * Benchmark driver: runs one figure point through the public harness
 * API and prints one JSON line describing it.
 *
 *   perfbench_driver --workload=sssp --scale=4 --config=minnow-pf
 *       --threads=64 --seed=1 [--spans=FILE]
 *       [machine flags: --cores=, --stats-interval=, --host-profile]
 *
 * Everything is measured from outside the simulator:
 *  - harness::makeWorkload is called kSetups times; each call is a
 *    "graph.build" span and the last workload built is the one run;
 *  - harness::runExperiment is the "harness.run" span;
 *  - global operator new is replaced here to count the calls and
 *    bytes one point allocates on this thread (setup + run), an exact
 *    count where host time is not;
 *  - the stats JSON the run exports is passed on without its
 *    interval samples (only the "groups" object is kept).
 * With --spans=FILE the spans (name, start, end, parent id) kept in
 * memory are written there when the point ends.
 */

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/options.hh"
#include "harness/workloads.hh"

namespace
{

// Main-thread allocation counters. thread_local keeps the replaced
// operator new race-free should the library ever allocate from
// another thread; those allocations are simply not counted.
thread_local std::uint64_t tAllocs = 0;
thread_local std::uint64_t tAllocBytes = 0;

void *
countedAlloc(std::size_t n)
{
    ++tAllocs;
    tAllocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++tAllocs;
    tAllocBytes += n;
    std::size_t a = std::size_t(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t sz = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, sz ? sz : a))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using Clock = std::chrono::steady_clock;

// makeWorkload calls per point. The first two or three of a process pay
// for fresh heap pages, so the median of nine is a warm call.
constexpr int kSetups = 9;

/** One bench-side span; parent -1 marks the root. */
struct Span
{
    std::string name;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
};

class SpanLog
{
  public:
    /** @p capacity spans are reserved so recording never allocates
     *  inside the counted window. */
    explicit SpanLog(std::size_t capacity) : origin_(Clock::now())
    {
        spans_.reserve(capacity);
    }

    int
    open(const std::string &name, int parent)
    {
        spans_.push_back({name, sinceOrigin(), 0, parent});
        return int(spans_.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(int id)
    {
        spans_[id].endNs = sinceOrigin();
        return double(spans_[id].endNs - spans_[id].startNs) * 1e-9;
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        fatal_if(!f, "cannot write spans to %s", path.c_str());
        std::fprintf(f, "{\"spans\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"id\":%zu,\"name\":\"%s\","
                         "\"start_ns\":%lld,\"end_ns\":%lld,"
                         "\"parent\":%d}",
                         i ? "," : "", i, s.name.c_str(),
                         (long long)s.startNs, (long long)s.endNs,
                         s.parent);
        }
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }

  private:
    std::int64_t
    sinceOrigin() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * The "groups" object of a minnow-stats-1 document, found by brace
 * matching so that whatever follows it (interval samples) is
 * dropped without being parsed.
 */
std::string
statsGroups(const std::string &json)
{
    const std::string key = "\"groups\":";
    std::size_t start = json.find(key);
    if (start == std::string::npos)
        return "{}";
    start += key.size();
    int depth = 0;
    bool inString = false;
    for (std::size_t i = start; i < json.size(); ++i) {
        char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            return json.substr(start, i + 1 - start);
        }
    }
    return "{}";
}

/** Whether the kernel grants a hardware instruction counter. */
bool
hwCountersAvailable()
{
    perf_event_attr attr = {};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof attr;
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0)
        return false;
    close(int(fd));
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace minnow;

    Options opts(argc, argv);
    std::string workload = opts.getString("workload", "");
    double scale = opts.getDouble("scale", 1.0);
    std::string config = opts.getString("config", "minnow-pf");
    std::uint32_t threads = std::uint32_t(opts.getUint("threads", 64));
    std::uint64_t seed = opts.getUint("seed", 1);
    std::string spansPath = opts.getString("spans", "");
    harness::RunSpec spec;
    spec.machine.applyOptions(opts);
    opts.rejectUnused();
    fatal_if(workload.empty(), "perfbench_driver needs --workload=");
    spec.config = harness::parseConfig(config);
    spec.threads = threads;
    spec.machine.numCores = std::max(spec.machine.numCores, threads);

    SpanLog spans(kSetups + 2);
    int point = spans.open("point", -1);

    // A Workload's app points into its own graph, so it is never
    // moved: each build is constructed in place on the heap.
    std::vector<double> setupS;
    setupS.reserve(kSetups);
    std::unique_ptr<harness::Workload> w;
    std::uint64_t allocs0 = 0, allocBytes0 = 0;
    for (int i = 0; i < kSetups; ++i) {
        w.reset();
        allocs0 = tAllocs;
        allocBytes0 = tAllocBytes;
        int id = spans.open("graph.build", point);
        w.reset(new harness::Workload(
            harness::makeWorkload(workload, scale, seed)));
        setupS.push_back(spans.close(id));
    }

    int runId = spans.open("harness.run", point);
    harness::ExperimentResult r = harness::runExperiment(*w, spec);
    double runS = spans.close(runId);
    std::uint64_t allocs = tAllocs - allocs0;
    std::uint64_t allocBytes = tAllocBytes - allocBytes0;
    spans.close(point);

    const galois::RunResult &rr = r.run;
    std::string groups = statsGroups(rr.statsJson);
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);

    std::printf("{\"workload\":\"%s\",\"config\":\"%s\",\"seed\":%llu,"
                "\"verified\":%s,\"timedOut\":%s,"
                "\"cycles\":%llu,\"instructions\":%llu,"
                "\"tasks\":%llu,\"pops\":%llu,\"l2Mpki\":%.17g,",
                workload.c_str(), config.c_str(),
                (unsigned long long)seed,
                rr.verified ? "true" : "false",
                rr.timedOut ? "true" : "false",
                (unsigned long long)rr.cycles,
                (unsigned long long)rr.instructions,
                (unsigned long long)rr.tasks,
                (unsigned long long)rr.pops, rr.l2Mpki);
    std::printf("\"setupS\":[");
    for (std::size_t i = 0; i < setupS.size(); ++i)
        std::printf("%s%.9f", i ? "," : "", setupS[i]);
    std::printf("],\"runS\":%.9f,\"statsJsonBytes\":%zu,"
                "\"allocs\":%llu,\"allocBytes\":%llu,"
                "\"peakRssKb\":%ld,\"hwCounters\":%s,\"stats\":%s}\n",
                runS, rr.statsJson.size(),
                (unsigned long long)allocs,
                (unsigned long long)allocBytes, ru.ru_maxrss,
                hwCountersAvailable() ? "true" : "false",
                groups.c_str());
    if (!spansPath.empty())
        spans.write(spansPath);
    return 0;
}
