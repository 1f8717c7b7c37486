/**
 * @file
 * The driver's workload interface, the metric catalog and the host
 * probes (CPU time, pool idle time, peak RSS) shared by the four
 * benchmark workloads.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hh"

namespace perfbench
{

/** Settings of one benchmark run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1;    ///< min(4, nproc)
    std::string workDir;  ///< scratch space inside the checkout
};

/** Failed/attempted accounting of correctness checks. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few messages

    /** Count one checked operation; record @p what when it failed. */
    bool expect(bool ok, const std::string &what);
    void add(const Checks &o);
};

/** Outcome of one measured pass. */
struct PassResult
{
    /** Wall seconds of the pass when it is only part of pass(), whose
     * checks of the outputs are not the system's work; 0 = all of it. */
    double sec = 0;
    std::vector<double> requestMs; ///< per-request host latencies
    uint64_t warpInstrs = 0;       ///< simulated warp instructions
    /** Digest of the pass outputs; must repeat across passes and at
     * jobs = 1 ("" when outputs legitimately differ per pass). */
    std::string digest;
    Checks checks;
    /** Per-layer values measured in code (counts, ms latencies). */
    std::map<std::string, double> values;
};

/** One benchmark workload; see README.md for why each exists. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Inputs, warm-up pass, cache prefill or server start. */
    virtual void setup() = 0;

    /** One measured pass; layer calls are recorded as spans of @p id
     * (a no-op while @p tr is disabled). */
    virtual PassResult pass(Tracer &tr, uint64_t id) = 0;

    /**
     * Per-layer metrics of one traced pass from its span durations by
     * name (seconds, summed over threads) and its result.
     */
    virtual std::map<std::string, double>
    layers(const std::map<std::string, double> &spanSec,
           const PassResult &res) = 0;

    /**
     * One iteration of per-layer re-runs outside the measured passes
     * (characterize's bare / do-nothing-hook / profiled ladder).
     * Returns its metrics, or nothing when the workload has none.
     */
    virtual std::map<std::string, double>
    ladder(Tracer &tr, uint64_t id)
    {
        (void)tr;
        (void)id;
        return {};
    }
    virtual bool hasLadder() const { return false; }

    /** Digest of a pass re-run at jobs = 1 ("" = not applicable). */
    virtual std::string referenceDigest(Checks &checks) = 0;

    /** Run-level per-layer values gathered after measurement. */
    virtual std::map<std::string, double> runLayers(Checks &checks)
    {
        (void)checks;
        return {};
    }

    /** Per-layer metric names this workload produces. */
    virtual std::vector<std::string> layerNames() const = 0;

    /** Stop background threads and servers. Idempotent. */
    virtual void teardown() {}
};

std::unique_ptr<BenchWorkload> makeCharacterize(const RunConfig &cfg);
std::unique_ptr<BenchWorkload> makeDesignSpace(const RunConfig &cfg);
std::unique_ptr<BenchWorkload> makeTraceRoundtrip(const RunConfig &cfg);
std::unique_ptr<BenchWorkload> makeServeMixed(const RunConfig &cfg);

/** A metric of the catalog (BENCHMARK.json lists the same set). */
struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** Unit of a catalog metric; throws on an unknown name. */
std::string unitOf(const std::string &name);

/** Design points in the catalog's timing.replay_s.<point> names. */
const std::vector<std::string> &catalogDesignPoints();

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Summed idle nanoseconds of the global ThreadPool's workers. */
uint64_t poolIdleNs();

/** Worker count of the global ThreadPool. */
unsigned poolWorkers();

/** Online CPUs available to this process. */
unsigned cpuCount();

/** Seed of independent stream @p k of the run seed @p seed. */
uint64_t subSeed(uint64_t seed, uint64_t k);

/** 16-hex-digit FNV-1a digest of @p bytes. */
std::string digestOf(const std::string &bytes);

/** Seconds elapsed since @p t0 (a nowSec() reading). */
inline double
since(double t0)
{
    return nowSec() - t0;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
