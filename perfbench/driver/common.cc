#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <stdexcept>

#include "common/fingerprint.hh"
#include "common/threadpool.hh"

namespace perfbench
{

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
    return ok;
}

void
Checks::add(const Checks &o)
{
    attempted += o.attempted;
    failed += o.failed;
    for (const auto &f : o.failures)
        if (failures.size() < 8)
            failures.push_back(f);
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"pass_s", "s"},
        {"winstr_per_sec", "winstr/s"},
        {"req_p50_ms", "ms"},
        {"req_p95_ms", "ms"},
        {"req_per_sec", "1/s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<std::string> &
catalogDesignPoints()
{
    static const std::vector<std::string> points = {
        "C0-base", "C1-bigL1", "C2-tinyL1", "C3-16core",
        "C4-2xBW", "C5-halfBW", "C6-rrSched", "C7-1cta"};
    return points;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workloads.setup_s", "s"},
            {"workloads.verify_s", "s"},
            {"workloads.failed", "count"},
            {"simt.run_profiled_s", "s"},
            {"simt.run_bare_s", "s"},
            {"simt.dispatch_s", "s"},
            {"simt.capture_s", "s"},
            {"simt.record_s", "s"},
            {"simt.warp_instrs", "count"},
            {"simt.hook_events", "count"},
            {"metrics.collect_s", "s"},
            {"metrics.finalize_s", "s"},
            {"timing.replay_s", "s"},
        };
        for (const auto &p : catalogDesignPoints())
            d.push_back({"timing.replay_s." + p, "s"});
        const std::vector<MetricDef> rest = {
            {"timing.trace_ops", "count"},
            {"timing.sim_cycles", "count"},
            {"timing.ns_per_warp_instr", "ns"},
            {"stats.pca_s", "s"},
            {"cluster.bic_s", "s"},
            {"cluster.kmeans_s", "s"},
            {"cluster.medoids_s", "s"},
            {"evalmetrics.estimate_s", "s"},
            {"evalmetrics.random_subset_s", "s"},
            {"telemetry.trace_close_s", "s"},
            {"telemetry.trace_bytes", "bytes"},
            {"telemetry.trace_chunks", "count"},
            {"telemetry.replay_s", "s"},
            {"telemetry.replay_events", "count"},
            {"runtime.job_local_ms", "ms"},
            {"runtime.cache_lookup_ms", "ms"},
            {"runtime.cache_store_ms", "ms"},
            {"runtime.cache_hits", "count"},
            {"runtime.cache_misses", "count"},
            {"runtime.cache_admitted", "count"},
            {"runtime.cache_stale", "count"},
            {"runtime.cache_hit_ratio", "ratio"},
            {"service.rtt_hit_ms", "ms"},
            {"service.rtt_miss_ms", "ms"},
            {"service.overhead_ms", "ms"},
            {"service.requests", "count"},
            {"service.jobs_failed", "count"},
            {"service.jobs_rejected", "count"},
            {"service.bad_requests", "count"},
            {"common.cpu_s", "s"},
            {"common.pool_busy_frac", "ratio"},
            {"common.critical_path_s", "s"},
            {"bench.trace_overhead_frac", "ratio"},
            {"bench.uncovered_s", "s"},
            {"bench.error_rate", "ratio"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        for (const auto &m : d)
            if (!validMetricName(m.name) || !validUnit(m.unit))
                throw std::logic_error("bad metric " + m.name);
        return d;
    }();
    return defs;
}

std::string
unitOf(const std::string &name)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const auto &m : *defs)
            if (name == m.name)
                return m.unit;
    throw std::logic_error("metric not in the catalog: " + name);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

uint64_t
poolIdleNs()
{
    uint64_t idle = 0;
    for (const auto &w : gwc::ThreadPool::global().statsSnapshot().workers)
        idle += w.idleNs;
    return idle;
}

unsigned
poolWorkers()
{
    return gwc::ThreadPool::global().workers();
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(CPU_COUNT(&set));
    return 1;
}

uint64_t
subSeed(uint64_t seed, uint64_t k)
{
    uint64_t x = seed * 0x9E3779B97F4A7C15ull + k;
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    return x ^ (x >> 29);
}

std::string
digestOf(const std::string &bytes)
{
    return gwc::hex64(gwc::fnv1a64(bytes));
}

} // namespace perfbench
