/**
 * @file
 * design_space: the gwc_simulate loop (setup, run under
 * timing::TraceCapture, timing::simulateAll on every designSpace()
 * point) followed by the fig11 subset analysis (PCA, BIC-selected
 * k-means, medoids, subset estimate, random-subset error). Timing
 * replay dominates; no collector runs. The characteristic matrix the
 * analysis clusters is characterized once during set-up.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "cluster/kmeans.hh"
#include "common.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "evalmetrics/evalmetrics.hh"
#include "runtime/session.hh"
#include "stats/pca.hh"
#include "timing/gpu.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

/** Timing results of one kernel (all launches) on every point. */
struct KernelRow
{
    std::string label;
    std::vector<timing::SimResult> sim; ///< per design point
};

/** One workload of the simulate loop. */
struct WorkloadOut
{
    std::vector<KernelRow> kernels;
    double sec = 0;
    uint64_t traceOps = 0;
    bool verified = false;
    bool truncated = false;
};

class DesignSpace : public BenchWorkload
{
  public:
    explicit DesignSpace(const RunConfig &cfg) : cfg_(cfg) {}

    void
    setup() override
    {
        cfgs_ = timing::designSpace();
        std::vector<std::string> points;
        for (const auto &c : cfgs_)
            points.push_back(c.name);
        if (points != catalogDesignPoints())
            throw std::runtime_error(
                "timing::designSpace() points differ from the "
                "benchmark's metric catalog");

        runtime::SessionOptions o;
        o.tool = "perfbench";
        o.suite.jobs = cfg_.jobs;
        runtime::Session session(o);
        const auto &runs = session.runSuite(names_);
        for (const auto &run : runs)
            if (run.failed() || !run.verified)
                throw std::runtime_error("set-up characterization of " +
                                         run.desc.abbrev + " failed");
        auto profiles = workloads::allProfiles(runs);
        matrix_ = workloads::metricMatrix(profiles);
        labels_ = workloads::profileLabels(profiles);
        session.finish();

        Tracer off;
        PassResult warm = runPass(off, 0, cfg_.jobs);
        warmChecks_ = warm.checks;
    }

    PassResult
    pass(Tracer &tr, uint64_t id) override
    {
        return runPass(tr, id, cfg_.jobs);
    }

    std::map<std::string, double>
    layers(const std::map<std::string, double> &spanSec,
           const PassResult &res) override
    {
        auto sec = [&](const std::string &n) {
            auto it = spanSec.find(n);
            return it == spanSec.end() ? 0.0 : it->second;
        };
        std::map<std::string, double> m = res.values;
        double replay = 0;
        for (const auto &c : cfgs_) {
            double s = sec("timing.replay." + c.name);
            m["timing.replay_s." + c.name] = s;
            replay += s;
        }
        m["timing.replay_s"] = replay;
        m["timing.ns_per_warp_instr"] =
            res.warpInstrs ? replay * 1e9 / double(res.warpInstrs) : 0;
        for (const char *n :
             {"workloads.setup", "workloads.verify", "simt.capture",
              "stats.pca", "cluster.bic", "cluster.kmeans",
              "cluster.medoids", "evalmetrics.estimate",
              "evalmetrics.random_subset"})
            m[std::string(n) + "_s"] = sec(n);
        return m;
    }

    std::string
    referenceDigest(Checks &checks) override
    {
        Tracer off;
        PassResult ref = runPass(off, 0, 1);
        checks.add(ref.checks);
        return ref.digest;
    }

    std::map<std::string, double>
    runLayers(Checks &checks) override
    {
        checks.add(warmChecks_);
        return {};
    }

    std::vector<std::string>
    layerNames() const override
    {
        std::vector<std::string> n = {
            "workloads.setup_s",      "workloads.verify_s",
            "workloads.failed",       "simt.capture_s",
            "simt.warp_instrs",       "timing.replay_s",
            "timing.trace_ops",       "timing.sim_cycles",
            "timing.ns_per_warp_instr", "stats.pca_s",
            "cluster.bic_s",          "cluster.kmeans_s",
            "cluster.medoids_s",      "evalmetrics.estimate_s",
            "evalmetrics.random_subset_s", "common.critical_path_s",
            "common.pool_busy_frac"};
        for (const auto &p : catalogDesignPoints())
            n.push_back("timing.replay_s." + p);
        return n;
    }

  private:
    WorkloadOut
    simulateWorkload(Tracer &tr, uint64_t id, int64_t parent,
                     const std::string &name)
    {
        WorkloadOut out;
        Tracer::Scope wlSpan(tr, "bench.workload", id, parent);
        const double t0 = nowSec();
        simt::Engine engine;
        auto wl = workloads::makeWorkload(name);
        {
            Tracer::Scope sc(tr, "workloads.setup", id);
            wl->setup(engine, 1);
        }
        timing::TraceCapture cap;
        engine.addHook(&cap);
        {
            Tracer::Scope sc(tr, "simt.capture", id);
            wl->run(engine);
        }
        engine.clearHooks();
        {
            Tracer::Scope sc(tr, "workloads.verify", id);
            out.verified = wl->verify(engine);
        }
        out.truncated = cap.truncated();

        // Group launch traces by kernel name, in first-launch order.
        std::map<std::string, std::vector<timing::KernelTrace>> by;
        std::vector<std::string> order;
        for (auto &t : cap.traces()) {
            out.traceOps += t.totalOps;
            if (!by.count(t.name))
                order.push_back(t.name);
            by[t.name].push_back(std::move(t));
        }
        for (const auto &k : order) {
            KernelRow row;
            row.label = name + "." + k;
            for (const auto &c : cfgs_) {
                Tracer::Scope sc(tr, "timing.replay." + c.name, id);
                row.sim.push_back(timing::simulateAll(by[k], c));
            }
            out.kernels.push_back(std::move(row));
        }
        out.sec = since(t0);
        return out;
    }

    PassResult
    runPass(Tracer &tr, uint64_t id, unsigned jobs)
    {
        PassResult r;
        std::vector<WorkloadOut> outs(names_.size());
        {
            Tracer::Scope loop(tr, "bench.simulate_loop", id);
            const int64_t parent = loop.index();
            std::vector<std::function<void()>> tasks;
            for (size_t i = 0; i < names_.size(); ++i)
                tasks.push_back([&, i] {
                    outs[i] = simulateWorkload(tr, id, parent, names_[i]);
                });
            ThreadPool::global().runAll(std::move(tasks), jobs);
        }

        // Assemble in workload order: the exact cycle table, the
        // speedup matrix and the kernel labels.
        std::vector<std::string> labels;
        std::ostringstream table;
        uint64_t executed = 0, replayed = 0, traceOps = 0, cycles = 0;
        double critical = 0;
        for (size_t i = 0; i < outs.size(); ++i) {
            const WorkloadOut &o = outs[i];
            r.checks.expect(o.verified, names_[i] + " verifies");
            r.checks.expect(!o.truncated,
                            names_[i] + " trace is complete");
            r.requestMs.push_back(o.sec * 1e3);
            critical = std::max(critical, o.sec);
            traceOps += o.traceOps;
            for (const auto &k : o.kernels) {
                labels.push_back(k.label);
                table << k.label;
                for (const auto &s : k.sim) {
                    table << ' ' << s.cycles << '/' << s.instrs;
                    replayed += s.instrs;
                    cycles += s.cycles;
                }
                table << '\n';
                executed += k.sim[0].instrs;
            }
        }
        stats::Matrix speedups(cfgs_.size(), labels.size());
        {
            size_t col = 0;
            for (const auto &o : outs)
                for (const auto &k : o.kernels) {
                    for (size_t c = 0; c < cfgs_.size(); ++c)
                        speedups(c, col) = double(k.sim[0].cycles) /
                                           double(k.sim[c].cycles);
                    ++col;
                }
        }
        r.warpInstrs = replayed;
        r.digest = "speedups=" + digestOf(table.str());
        r.values = {{"workloads.failed", double(r.checks.failed)},
                    {"simt.warp_instrs", double(executed)},
                    {"timing.trace_ops", double(traceOps)},
                    {"timing.sim_cycles", double(cycles)},
                    {"common.critical_path_s", critical}};
        if (!r.checks.expect(labels == labels_,
                             "simulated kernels match the profiled ones"))
            return r;

        // fig11: representative subset vs random subsets.
        stats::Matrix space;
        {
            Tracer::Scope sc(tr, "stats.pca", id);
            stats::PcaResult p = stats::pca(matrix_);
            space = p.truncatedScores(p.numPcsFor(0.90));
        }
        Rng rng(subSeed(cfg_.seed, 1));
        uint32_t k = 0;
        {
            Tracer::Scope sc(tr, "cluster.bic", id);
            k = cluster::selectKByBic(space, uint32_t(space.rows()) / 2,
                                      rng);
        }
        cluster::KmeansResult km;
        {
            Tracer::Scope sc(tr, "cluster.kmeans", id);
            km = cluster::kmeans(space, k, rng);
        }
        std::vector<uint32_t> reps;
        {
            Tracer::Scope sc(tr, "cluster.medoids", id);
            reps = cluster::medoids(space, km.labels, k);
        }
        std::vector<double> est, truth;
        double repErr = 0;
        {
            Tracer::Scope sc(tr, "evalmetrics.estimate", id);
            est = evalmetrics::subsetEstimate(speedups, km.labels, reps);
            truth = evalmetrics::suiteMeans(speedups);
            repErr = evalmetrics::meanAbsRelError(est, truth);
        }
        Rng rng2(subSeed(cfg_.seed, 2));
        double rndErr = 0;
        {
            Tracer::Scope sc(tr, "evalmetrics.random_subset", id);
            rndErr = evalmetrics::randomSubsetError(speedups, k, 500, rng2);
        }
        std::ostringstream fig;
        fig << "k=" << k << " reps=";
        for (uint32_t rep : reps)
            fig << labels[rep] << ',';
        fig << " est=";
        for (double e : est)
            fig << jsonNumber(e) << ',';
        fig << " rep_err=" << jsonNumber(repErr)
            << " rnd_err=" << jsonNumber(rndErr);
        r.digest += " fig11=" + digestOf(fig.str());
        return r;
    }

    RunConfig cfg_;
    std::vector<std::string> names_ = workloads::workloadNames();
    std::vector<timing::GpuConfig> cfgs_;
    stats::Matrix matrix_;
    std::vector<std::string> labels_;
    Checks warmChecks_;
};

} // anonymous namespace

std::unique_ptr<BenchWorkload>
makeDesignSpace(const RunConfig &cfg)
{
    return std::make_unique<DesignSpace>(cfg);
}

} // namespace perfbench
