/**
 * @file
 * characterize: cold full-suite characterization through
 * runtime::Session::runSuite, verify on, no result cache — what
 * gwc_characterize runs. The traced run adds a ladder of serial
 * re-runs (bare engine, do-nothing hook, Profiler) that splits engine,
 * dispatch and collector time. Each ladder iteration also runs one
 * trace_roundtrip pass and one serve_mixed round with its local
 * re-runs, so the trace-corpus, cache and service layers are measured
 * on a gated workload (README.md explains the split).
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "common.hh"
#include "metrics/profile_io.hh"
#include "runtime/session.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

/**
 * A hook that does nothing with the events it receives but count
 * them. It takes the same delivery path as the Profiler (batched
 * spans, the Profiler's depDist lane claim), so the run under it
 * minus the bare run is the engine's staging and dispatch cost, and
 * the profiled run minus it is the collectors' own work.
 */
class CountingNullHook : public simt::ProfilerHook
{
  public:
    explicit CountingNullHook(simt::LaneMask lanes) : lanes_(lanes) {}

    bool batchCapable() const override { return true; }
    simt::LaneMask depDistLanes() const override { return lanes_; }

    void kernelBegin(const simt::KernelInfo &) override { ++events; }
    void kernelEnd() override { ++events; }
    void ctaBegin(uint32_t) override { ++events; }
    void ctaEnd(uint32_t) override { ++events; }
    void instr(const simt::InstrEvent &) override { ++events; }
    void mem(const simt::MemEvent &) override { ++events; }
    void branch(const simt::BranchEvent &) override { ++events; }
    void barrier(uint32_t) override { ++events; }
    void
    instrBatch(std::span<const simt::InstrEvent> evs) override
    {
        events += evs.size();
    }
    void
    memBatch(std::span<const simt::MemEvent> evs) override
    {
        events += evs.size();
    }
    void
    branchBatch(std::span<const simt::BranchEvent> evs) override
    {
        events += evs.size();
    }

    uint64_t events = 0;

  private:
    simt::LaneMask lanes_;
};

/** Run @p fn inside a span named @p name; return its seconds. */
template <typename Fn>
double
timed(Tracer &tr, const char *name, uint64_t id, Fn &&fn)
{
    Tracer::Scope sc(tr, name, id);
    double t0 = nowSec();
    fn();
    return since(t0);
}

/** Layers characterize measures itself, trace mode or not. */
const std::vector<std::string> kOwnLayers = {
    "workloads.setup_s",      "workloads.verify_s",
    "workloads.failed",       "simt.run_profiled_s",
    "simt.run_bare_s",        "simt.dispatch_s",
    "simt.warp_instrs",       "simt.hook_events",
    "metrics.collect_s",      "metrics.finalize_s",
    "common.critical_path_s", "common.pool_busy_frac"};

/** The layers of @p w that characterize does not measure itself. */
std::vector<std::string>
probeLayers(const BenchWorkload &w)
{
    std::vector<std::string> out;
    for (const auto &n : w.layerNames())
        if (std::find(kOwnLayers.begin(), kOwnLayers.end(), n) ==
            kOwnLayers.end())
            out.push_back(n);
    return out;
}

/** Copy the entries of @p from that are layers of @p w into @p to. */
void
keepLayers(const std::map<std::string, double> &from,
           const BenchWorkload &w, std::map<std::string, double> &to)
{
    for (const auto &k : probeLayers(w))
        if (auto it = from.find(k); it != from.end())
            to[k] = it->second;
}

class Characterize : public BenchWorkload
{
  public:
    explicit Characterize(const RunConfig &cfg)
        : cfg_(cfg), traceProbe_(makeTraceRoundtrip(cfg)),
          serveProbe_(makeServeMixed(cfg))
    {}

    void
    setup() override
    {
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
    layers(const std::map<std::string, double> &,
           const PassResult &res) override
    {
        return res.values;
    }

    bool hasLadder() const override { return true; }

    std::map<std::string, double>
    ladder(Tracer &tr, uint64_t id) override
    {
        double bare = 0, null = 0, prof = 0, setup = 0, verify = 0,
               finalize = 0;
        uint64_t events = 0;
        std::vector<metrics::KernelProfile> all;
        const simt::LaneMask lanes = metrics::Profiler().depDistLanes();
        for (const auto &name : names_) {
            {
                simt::Engine e;
                auto wl = workloads::makeWorkload(name);
                timed(tr, "bench.ladder_setup", id,
                      [&] { wl->setup(e, 1); });
                bare += timed(tr, "simt.run_bare", id,
                              [&] { wl->run(e); });
                ladderChecks_.expect(wl->verify(e),
                                     name + " bare run verifies");
            }
            {
                simt::Engine e;
                auto wl = workloads::makeWorkload(name);
                timed(tr, "bench.ladder_setup", id,
                      [&] { wl->setup(e, 1); });
                CountingNullHook hook(lanes);
                e.addHook(&hook);
                null += timed(tr, "simt.run_null_hook", id,
                              [&] { wl->run(e); });
                e.clearHooks();
                events += hook.events;
                ladderChecks_.expect(wl->verify(e),
                                     name + " null-hook run verifies");
            }
            {
                simt::Engine e;
                auto wl = workloads::makeWorkload(name);
                setup += timed(tr, "workloads.setup", id,
                               [&] { wl->setup(e, 1); });
                metrics::Profiler profiler;
                e.addHook(&profiler);
                prof += timed(tr, "simt.run_profiled", id,
                              [&] { wl->run(e); });
                e.clearHooks();
                std::vector<metrics::KernelProfile> rows;
                finalize += timed(tr, "metrics.finalize", id, [&] {
                    rows = profiler.finalize(wl->desc().abbrev);
                });
                bool ok = false;
                verify += timed(tr, "workloads.verify", id,
                                [&] { ok = wl->verify(e); });
                ladderChecks_.expect(ok, name + " profiled run verifies");
                all.insert(all.end(), rows.begin(), rows.end());
            }
        }
        std::ostringstream csv;
        metrics::writeProfilesCsv(csv, all);
        ladderChecks_.expect(digestOf(csv.str()) == passCsvDigest_,
                             "ladder profiles equal the Session's");
        std::map<std::string, double> out = {
            {"simt.run_bare_s", bare},
            {"simt.run_profiled_s", prof},
            {"simt.dispatch_s", null - bare},
            {"metrics.collect_s", prof - null},
            {"metrics.finalize_s", finalize},
            {"workloads.setup_s", setup},
            {"workloads.verify_s", verify},
            {"simt.hook_events", double(events)}};

        probe(*traceProbe_, tr, id, out);
        if (!serveStarted_) {
            serveProbe_->setup();
            serveStarted_ = true;
        }
        probe(*serveProbe_, tr, id, out);
        return out;
    }

    std::string
    referenceDigest(Checks &checks) override
    {
        Tracer off;
        PassResult ref = runPass(off, 0, 1);
        checks.add(ref.checks);
        if (serveStarted_)
            serveProbe_->referenceDigest(checks);
        return ref.digest;
    }

    std::map<std::string, double>
    runLayers(Checks &checks) override
    {
        checks.add(warmChecks_);
        checks.add(ladderChecks_);
        std::map<std::string, double> out;
        if (serveStarted_)
            keepLayers(serveProbe_->runLayers(checks), *serveProbe_, out);
        return out;
    }

    std::vector<std::string>
    layerNames() const override
    {
        std::vector<std::string> n = kOwnLayers;
        if (cfg_.trace)
            for (const auto *w : {traceProbe_.get(), serveProbe_.get()})
                for (const auto &k : probeLayers(*w))
                    n.push_back(k);
        return n;
    }

    void teardown() override { serveProbe_->teardown(); }

  private:
    /**
     * One traced pass plus one ladder iteration of another workload,
     * recorded under this ladder's id; the layers characterize does
     * not measure itself go to @p out and its checks count here.
     */
    void
    probe(BenchWorkload &w, Tracer &tr, uint64_t id,
          std::map<std::string, double> &out)
    {
        PassResult res = w.pass(tr, id);
        ladderChecks_.add(res.checks);
        std::map<std::string, double> m =
            w.layers(durationsByName(tr.spans(), id), res);
        for (const auto &[k, v] : w.ladder(tr, id))
            m[k] = v;
        keepLayers(m, w, out);
    }

    PassResult
    runPass(Tracer &tr, uint64_t id, unsigned jobs)
    {
        PassResult r;
        runtime::SessionOptions o;
        o.tool = "perfbench";
        o.suite.jobs = jobs;
        o.suite.verify = true;
        std::unique_ptr<runtime::Session> session;
        {
            Tracer::Scope sc(tr, "runtime.session_open", id);
            session = std::make_unique<runtime::Session>(o);
        }
        const std::vector<workloads::WorkloadRun> *runs = nullptr;
        {
            Tracer::Scope sc(tr, "runtime.run_suite", id);
            runs = &session->runSuite(names_);
        }
        double failed = 0, critical = 0;
        for (const auto &run : *runs) {
            const std::string &wl = run.desc.abbrev;
            r.checks.expect(!run.failed(), wl + " completes");
            r.checks.expect(run.verified, wl + " verifies");
            failed += run.failed() ? 1 : 0;
            double sec = run.setupSec + run.simulateSec +
                         run.profileSec + run.verifySec;
            r.requestMs.push_back(sec * 1e3);
            critical = std::max(critical, sec);
            r.warpInstrs += run.totals.warpInstrs;
        }
        std::ostringstream csv;
        {
            Tracer::Scope sc(tr, "metrics.profile_csv", id);
            metrics::writeProfilesCsv(csv, workloads::allProfiles(*runs));
        }
        {
            Tracer::Scope sc(tr, "runtime.session_finish", id);
            session->finish();
        }
        const std::string csvDigest = digestOf(csv.str());
        passCsvDigest_ = csvDigest;
        r.digest = "profiles=" + csvDigest;
        r.values = {{"workloads.failed", failed},
                    {"simt.warp_instrs", double(r.warpInstrs)},
                    {"common.critical_path_s", critical}};
        return r;
    }

    RunConfig cfg_;
    std::vector<std::string> names_ = workloads::workloadNames();
    std::string passCsvDigest_;
    Checks warmChecks_;
    Checks ladderChecks_;
    std::unique_ptr<BenchWorkload> traceProbe_, serveProbe_;
    bool serveStarted_ = false;
};

} // anonymous namespace

std::unique_ptr<BenchWorkload>
makeCharacterize(const RunConfig &cfg)
{
    return std::make_unique<Characterize>(cfg);
}

} // namespace perfbench
