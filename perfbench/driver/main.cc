/**
 * @file
 * perfbench_driver — one benchmark run of one workload.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --work-dir DIR [--commit SHA] [--source-digest D]
 *
 * Sets the workload up three to five times (set-up time is the
 * median), then runs measured passes for S seconds. With --trace 0
 * every pass is untraced and the end-to-end metrics are reported.
 * With --trace 1 passes alternate untraced/traced, workloads with a
 * ladder run it in the last part of the run, and the per-layer
 * metrics are reported. A jobs = 1 reference pass closes the run. The full record goes to DIR/results/; the last
 * stdout line is the one-line JSON summary perfbench/run.py relays.
 * Exit 0 after a completed run (the summary says whether every check
 * passed), 1 on a refused build or a fatal error, 2 on bad arguments.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "common/logging.hh"

namespace
{

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr int kMinSetups = 3;        ///< set-ups per run (median) ...
constexpr int kMaxSetups = 5;        ///< ... up to this many while they
constexpr double kSetupBudget = 3.0; ///< fit in this many seconds
constexpr size_t kMinPasses = 3;     ///< untraced passes per run
constexpr size_t kMinTraced = 2;     ///< traced passes per traced run
constexpr size_t kMinRequests = 200; ///< p95 needs 10 samples beyond
constexpr double kLadderShare = 0.4; ///< traced run time for the ladder

struct Args
{
    RunConfig cfg;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("option " + k +
                                        " requires a value");
        std::string v = argv[++i];
        seen.insert(k);
        if (k == "--workload")
            a.cfg.workload = v;
        else if (k == "--seed")
            a.cfg.seed = std::stoull(v);
        else if (k == "--seconds")
            a.cfg.seconds = std::stod(v);
        else if (k == "--trace")
            a.cfg.trace = v == "1";
        else if (k == "--work-dir")
            a.cfg.workDir = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--source-digest")
            a.sourceDigest = v;
        else
            throw std::invalid_argument("unknown option " + k);
    }
    for (const char *req : {"--workload", "--work-dir"})
        if (!seen.count(req))
            throw std::invalid_argument(std::string("missing ") + req);
    if (!(a.cfg.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "characterize")
        return makeCharacterize(cfg);
    if (cfg.workload == "design_space")
        return makeDesignSpace(cfg);
    if (cfg.workload == "trace_roundtrip")
        return makeTraceRoundtrip(cfg);
    if (cfg.workload == "serve_mixed")
        return makeServeMixed(cfg);
    throw std::invalid_argument("unknown workload " + cfg.workload);
}

struct PassRecord
{
    uint64_t id = 0;
    bool traced = false;
    double sec = 0;
    double cpuSec = 0;
    double poolBusy = 0;
    PassResult res;
};

/** A reported value with the sample count behind it. */
struct Reported
{
    double value = 0;
    size_t samples = 0;
    std::string note; ///< percentile rule outcome, "not entered", ...
};

PassRecord
runPass(BenchWorkload &w, Tracer &tr, uint64_t id, bool traced)
{
    PassRecord rec;
    rec.id = id;
    rec.traced = traced;
    tr.setEnabled(traced);
    const double cpu0 = cpuSeconds();
    const uint64_t idle0 = poolIdleNs();
    const double t0 = nowSec();
    {
        Tracer::Scope root(tr, "bench.pass", id);
        rec.res = w.pass(tr, id);
    }
    rec.sec = rec.res.sec > 0 ? rec.res.sec : since(t0);
    tr.setEnabled(false);
    rec.cpuSec = cpuSeconds() - cpu0;
    double idle = double(poolIdleNs() - idle0) * 1e-9;
    double cap = double(poolWorkers()) * rec.sec;
    rec.poolBusy = cap > 0 ? std::clamp(1.0 - idle / cap, 0.0, 1.0) : 0;
    return rec;
}

/** Median of each key over a list of per-unit metric maps. */
std::map<std::string, double>
medians(const std::vector<std::map<std::string, double>> &units)
{
    std::map<std::string, std::vector<double>> by;
    for (const auto &u : units)
        for (const auto &[k, v] : u)
            by[k].push_back(v);
    std::map<std::string, double> out;
    for (const auto &[k, v] : by)
        out[k] = median(v);
    return out;
}

std::string
percentileNote(size_t n)
{
    auto p = tailPercentile(n);
    std::ostringstream os;
    os << "n=" << n;
    if (p)
        os << " highest percentile with >=10 samples beyond: p" << *p;
    else
        os << " too few samples for a percentile with >=10 beyond";
    return os.str();
}

void
writeMetrics(std::ostream &os, const std::map<std::string, Reported> &m,
             bool detail)
{
    os << "{";
    bool first = true;
    for (const auto &[name, r] : m) {
        os << (first ? "" : ",") << jsonString(name)
           << ":{\"value\":" << jsonNumber(r.value)
           << ",\"unit\":" << jsonString(unitOf(name));
        if (detail)
            os << ",\"samples\":" << r.samples
               << ",\"note\":" << jsonString(r.note);
        os << "}";
        first = false;
    }
    os << "}";
}

int
runBenchmark(const Args &args)
{
    RunConfig cfg = args.cfg;
    cfg.jobs = std::min(4u, cpuCount());
    std::filesystem::create_directories(cfg.workDir);
    const std::string resultsDir = cfg.workDir + "/results";
    std::filesystem::create_directories(resultsDir);

    // Set-up, several times: each from scratch, the last one kept.
    std::vector<double> setupSec;
    std::unique_ptr<BenchWorkload> w;
    const double setupStart = nowSec();
    for (int k = 0; k < kMaxSetups; ++k) {
        if (k >= kMinSetups && since(setupStart) >= kSetupBudget)
            break;
        if (w) {
            w->teardown();
            w.reset();
        }
        auto fresh = makeWorkload(cfg);
        const double t0 = nowSec();
        fresh->setup();
        setupSec.push_back(since(t0));
        w = std::move(fresh);
    }

    // Measured passes; traced runs alternate untraced/traced passes
    // and leave the rest of the time to the ladder.
    Tracer tr(false);
    std::vector<PassRecord> passes;
    const double start = nowSec();
    const double passBudget =
        cfg.seconds *
        (cfg.trace && w->hasLadder() ? 1.0 - kLadderShare : 1.0);
    const double hardCap = 2.0 * cfg.seconds + 10.0;
    size_t untraced = 0, traced = 0, requests = 0;
    for (uint64_t id = 1;; ++id) {
        const bool tracedPass = cfg.trace && id % 2 == 0;
        passes.push_back(runPass(*w, tr, id, tracedPass));
        if (tracedPass) {
            ++traced;
        } else {
            ++untraced;
            requests += passes.back().res.requestMs.size();
        }
        const double el = since(start);
        if (el >= hardCap)
            break;
        const bool enough =
            untraced >= kMinPasses &&
            (cfg.trace ? traced >= kMinTraced : requests >= kMinRequests);
        if (el >= passBudget && enough)
            break;
    }
    std::vector<std::map<std::string, double>> ladderUnits;
    if (cfg.trace && w->hasLadder()) {
        uint64_t id = 1000000;
        tr.setEnabled(true);
        do {
            ladderUnits.push_back(w->ladder(tr, id++));
        } while (since(start) < cfg.seconds && since(start) < hardCap);
        tr.setEnabled(false);
    }
    const double measuredSec = since(start);

    // Correctness: per-pass checks, digests repeating across passes
    // and at jobs = 1, run-level checks.
    Checks checks;
    for (const auto &p : passes)
        checks.add(p.res.checks);
    const std::string digest = passes.front().res.digest;
    if (!digest.empty()) {
        for (const auto &p : passes)
            checks.expect(p.res.digest == digest,
                          "pass " + std::to_string(p.id) +
                              " digest repeats the first pass");
        checks.expect(w->referenceDigest(checks) == digest,
                      "jobs=1 digest equals jobs=" +
                          std::to_string(cfg.jobs));
    } else {
        w->referenceDigest(checks);
    }
    std::map<std::string, double> runLevel = w->runLayers(checks);
    w->teardown();

    // End-to-end metrics, from untraced passes.
    std::map<std::string, Reported> e2e;
    std::vector<double> passSec, winstrRate, reqRate, reqMs;
    for (const auto &p : passes) {
        if (p.traced)
            continue;
        passSec.push_back(p.sec);
        winstrRate.push_back(double(p.res.warpInstrs) / p.sec);
        reqRate.push_back(double(p.res.requestMs.size()) / p.sec);
        reqMs.insert(reqMs.end(), p.res.requestMs.begin(),
                     p.res.requestMs.end());
    }
    e2e["setup_s"] = {median(setupSec), setupSec.size(),
                      "median of set-ups"};
    e2e["pass_s"] = {median(passSec), passSec.size(),
                     percentileNote(passSec.size())};
    e2e["winstr_per_sec"] = {median(winstrRate), winstrRate.size(),
                             "median of per-pass rates"};
    e2e["req_p50_ms"] = {quantile(reqMs, 0.50), reqMs.size(),
                         percentileNote(reqMs.size())};
    e2e["req_p95_ms"] = {quantile(reqMs, 0.95), reqMs.size(),
                         samplesBeyond(reqMs.size(), 95) >= 10
                             ? percentileNote(reqMs.size())
                             : "p95 has fewer than 10 samples beyond; " +
                                   percentileNote(reqMs.size())};
    e2e["req_per_sec"] = {median(reqRate), reqRate.size(),
                          "median of per-pass rates"};
    e2e["peak_rss_mb"] = {peakRssMb(), 1, "getrusage ru_maxrss"};

    // Per-layer metrics: traced passes, ladder iterations, run level.
    std::map<std::string, Reported> layer;
    const std::vector<Span> spans = tr.spans();
    const std::vector<double> self = selfTimes(spans);
    std::map<uint64_t, double> uncovered;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == "bench.pass")
            uncovered[spans[i].id] = self[i];
    std::set<std::string> own;
    for (const auto &n : w->layerNames())
        own.insert(n);
    std::vector<std::map<std::string, double>> passUnits;
    std::vector<double> tracedSec, plainSec;
    for (const auto &p : passes) {
        if (!p.traced) {
            plainSec.push_back(p.sec);
            continue;
        }
        tracedSec.push_back(p.sec);
        auto u = w->layers(durationsByName(spans, p.id), p.res);
        u["common.cpu_s"] = p.cpuSec;
        if (own.count("common.pool_busy_frac"))
            u["common.pool_busy_frac"] = p.poolBusy;
        u["bench.uncovered_s"] = uncovered[p.id];
        passUnits.push_back(std::move(u));
    }
    if (cfg.trace) {
        for (const auto &[k, v] : medians(passUnits))
            layer[k] = {v, passUnits.size(), "median of traced passes"};
        for (const auto &[k, v] : medians(ladderUnits))
            layer[k] = {v, ladderUnits.size(),
                        "median of ladder iterations"};
        for (const auto &[k, v] : runLevel)
            layer[k] = {v, 1, "whole run"};
        layer["bench.trace_overhead_frac"] = {
            median(tracedSec) / median(plainSec) - 1.0,
            tracedSec.size() + plainSec.size(),
            "traced vs untraced pass_s medians (ladder excluded)"};
        layer["bench.error_rate"] = {
            double(checks.failed) / double(std::max<uint64_t>(
                                        1, checks.attempted)),
            checks.attempted, "failed / attempted"};
        for (const auto &m : perLayerMetrics()) {
            if (layer.count(m.name))
                continue;
            if (own.count(m.name))
                throw std::logic_error("workload did not produce " +
                                       m.name);
            layer[m.name] = {0, 0, "layer not entered by this workload"};
        }
        for (const auto &[k, r] : layer)
            unitOf(k); // throws on names outside the catalog
        tr.writeJsonl(resultsDir + "/" + cfg.workload + "-seed" +
                      std::to_string(cfg.seed) + "-spans.jsonl");
    }

    // Human-readable summary.
    const auto &shown = cfg.trace ? layer : e2e;
    std::printf("perfbench %s seed=%llu jobs=%u passes=%zu "
                "measured=%.2fs\n",
                cfg.workload.c_str(), (unsigned long long)cfg.seed,
                cfg.jobs, passes.size(), measuredSec);
    if (!digest.empty())
        std::printf("digests: %s\n", digest.c_str());
    for (const auto &[name, r] : shown)
        std::printf("  %-32s %14.6g %-9s %s\n", name.c_str(), r.value,
                    unitOf(name).c_str(), r.note.c_str());
    std::printf("  error_rate %.6g (%llu failed / %llu attempted)\n",
                double(checks.failed) /
                    double(std::max<uint64_t>(1, checks.attempted)),
                (unsigned long long)checks.failed,
                (unsigned long long)checks.attempted);
    for (const auto &f : checks.failures)
        std::printf("  FAILED: %s\n", f.c_str());

    // Result file.
    const std::string resultPath =
        resultsDir + "/" + cfg.workload + "-seed" +
        std::to_string(cfg.seed) + "-trace" +
        std::to_string(cfg.trace ? 1 : 0) + ".json";
    {
        std::ofstream os(resultPath);
        os << "{\"workload\":" << jsonString(cfg.workload)
           << ",\"seed\":" << cfg.seed
           << ",\"seconds\":" << jsonNumber(cfg.seconds)
           << ",\"trace\":" << (cfg.trace ? 1 : 0)
           << ",\"env\":{\"nproc\":" << cpuCount()
           << ",\"hardware_threads\":"
           << std::thread::hardware_concurrency()
           << ",\"jobs\":" << cfg.jobs
           << ",\"pool_workers\":" << poolWorkers()
           << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
           << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
           << ",\"commit\":" << jsonString(args.commit)
           << ",\"source_digest\":" << jsonString(args.sourceDigest)
           << "},\"timing_model\":"
           << jsonString("unvalidated: the repository holds no "
                         "hardware reference, so no simulator error "
                         "figure is given")
           << ",\"digest\":" << jsonString(digest)
           << ",\"setup_s\":[";
        for (size_t i = 0; i < setupSec.size(); ++i)
            os << (i ? "," : "") << jsonNumber(setupSec[i]);
        os << "],\"passes\":[";
        for (size_t i = 0; i < passes.size(); ++i)
            os << (i ? "," : "") << "{\"id\":" << passes[i].id
               << ",\"traced\":" << (passes[i].traced ? "true" : "false")
               << ",\"sec\":" << jsonNumber(passes[i].sec)
               << ",\"requests\":" << passes[i].res.requestMs.size()
               << "}";
        os << "],\"end_to_end\":";
        writeMetrics(os, e2e, true);
        os << ",\"per_layer\":";
        writeMetrics(os, layer, true);
        os << ",\"attempted\":" << checks.attempted
           << ",\"failed\":" << checks.failed << ",\"failures\":[";
        for (size_t i = 0; i < checks.failures.size(); ++i)
            os << (i ? "," : "") << jsonString(checks.failures[i]);
        os << "]}\n";
    }
    std::printf("result file: %s\n", resultPath.c_str());

    std::ostringstream last;
    last << "{\"correct\":" << (checks.failed == 0 ? "true" : "false")
         << ",\"attempted\":" << checks.attempted
         << ",\"failed\":" << checks.failed << ",\"metrics\":";
    writeMetrics(last, shown, false);
    last << "}";
    std::printf("%s\n", last.str().c_str());
    std::fflush(stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
        makeWorkload(args.cfg); // validates the name before any work
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (kSanitized || buildType.empty() || buildType == "Debug") {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to measure a %s build "
                     "(build type '%s'); build Release or "
                     "RelWithDebInfo without sanitizers\n",
                     kSanitized ? "sanitizer" : "debug",
                     buildType.c_str());
        return 1;
    }
    gwc::setLogLevel(gwc::LogLevel::Warn);
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: fatal: %s\n", e.what());
        return 1;
    }
}
