/**
 * @file
 * trace_roundtrip: record the full suite with telemetry::TraceWriter
 * (a Session with a trace output, which runs the workload loop
 * serial), then replay the corpus into a Profiler per recorded
 * workload with telemetry::TraceReplayer, workloads in parallel, and
 * require the replayed profiles to equal the live ones. The only
 * workload that writes and reads the trace corpus. A request is the
 * replay of one recorded workload: its profiles out of the corpus.
 */

#include <filesystem>
#include <functional>
#include <sstream>

#include "common.hh"
#include "common/threadpool.hh"
#include "metrics/profile_io.hh"
#include "runtime/session.hh"
#include "telemetry/replay.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

std::string
profileCsv(const std::vector<metrics::KernelProfile> &rows)
{
    std::ostringstream os;
    metrics::writeProfilesCsv(os, rows);
    return os.str();
}

class TraceRoundtrip : public BenchWorkload
{
  public:
    explicit TraceRoundtrip(const RunConfig &cfg)
        : cfg_(cfg), path_(cfg.workDir + "/trace_roundtrip.trace")
    {}

    ~TraceRoundtrip() override { std::filesystem::remove(path_); }

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
    layers(const std::map<std::string, double> &spanSec,
           const PassResult &res) override
    {
        auto sec = [&](const std::string &n) {
            auto it = spanSec.find(n);
            return it == spanSec.end() ? 0.0 : it->second;
        };
        std::map<std::string, double> m = res.values;
        m["simt.record_s"] = sec("simt.record");
        m["telemetry.trace_close_s"] = sec("telemetry.trace_close");
        m["telemetry.replay_s"] = sec("telemetry.replay");
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
        return {"workloads.failed",        "simt.record_s",
                "simt.warp_instrs",        "telemetry.trace_close_s",
                "telemetry.trace_bytes",   "telemetry.trace_chunks",
                "telemetry.replay_s",      "telemetry.replay_events",
                "common.pool_busy_frac"};
    }

  private:
    PassResult
    runPass(Tracer &tr, uint64_t id, unsigned jobs)
    {
        PassResult r;
        runtime::SessionOptions o;
        o.tool = "perfbench";
        o.suite.jobs = jobs;
        o.suite.verify = true;
        o.traceOut = path_;
        std::unique_ptr<runtime::Session> session;
        {
            Tracer::Scope sc(tr, "runtime.session_open", id);
            session = std::make_unique<runtime::Session>(o);
        }
        const std::vector<workloads::WorkloadRun> *runs = nullptr;
        {
            Tracer::Scope sc(tr, "simt.record", id);
            runs = &session->runSuite(names_);
        }
        std::map<std::string, std::string> live;
        double failed = 0;
        for (const auto &run : *runs) {
            const std::string &wl = run.desc.abbrev;
            r.checks.expect(!run.failed(), wl + " completes");
            r.checks.expect(run.verified, wl + " verifies");
            failed += run.failed() ? 1 : 0;
            r.warpInstrs += run.totals.warpInstrs;
            live[wl] = profileCsv(run.profiles);
        }
        {
            Tracer::Scope sc(tr, "telemetry.trace_close", id);
            session->tracer()->close();
        }
        {
            Tracer::Scope sc(tr, "runtime.session_finish", id);
            session->finish();
        }
        session.reset();

        // Replay workload-parallel, as the suite runs workloads: each
        // task opens the corpus and replays one recorded workload into
        // its own Profiler. Short chunk-parallel replays of small
        // workloads would time the pool's wake-ups instead.
        struct Replayed
        {
            std::string csv;
            uint64_t events = 0;
            double ms = 0;
        };
        std::vector<telemetry::WorkloadSegment> segs;
        std::vector<Replayed> out;
        uint64_t bytes = 0, chunks = 0;
        {
            Tracer::Scope sc(tr, "telemetry.replay", id);
            {
                telemetry::TraceReader reader(path_);
                bytes = reader.fileBytes();
                chunks = reader.index().chunks.size();
                segs = telemetry::workloadSegments(reader.index());
            }
            out.resize(segs.size());
            std::vector<std::function<void()>> tasks;
            for (size_t i = 0; i < segs.size(); ++i)
                tasks.push_back([&, i] {
                    const double t0 = nowSec();
                    telemetry::TraceReader reader(path_);
                    telemetry::TraceReplayer rep(reader);
                    metrics::Profiler prof;
                    telemetry::ReplayStats st = rep.replayRange(
                        segs[i].firstLaunch, segs[i].lastLaunch, prof, {});
                    out[i].events = st.counts.total();
                    out[i].csv = profileCsv(prof.finalize(segs[i].workload));
                    out[i].ms = since(t0) * 1e3;
                });
            ThreadPool::global().runAll(std::move(tasks), jobs);
        }
        r.checks.expect(segs.size() == names_.size(),
                        "one trace segment per workload");
        std::string liveAll, replayAll;
        uint64_t events = 0;
        for (size_t i = 0; i < segs.size(); ++i) {
            const std::string &wl = segs[i].workload;
            r.requestMs.push_back(out[i].ms);
            events += out[i].events;
            r.checks.expect(out[i].csv == live[wl],
                            wl + " replayed profiles equal live ones");
            liveAll += live[wl];
            replayAll += out[i].csv;
        }
        std::filesystem::remove(path_);

        r.digest = "profiles=" + digestOf(liveAll) +
                   " replay=" + digestOf(replayAll) +
                   " trace_bytes=" + std::to_string(bytes);
        r.values = {{"workloads.failed", failed},
                    {"simt.warp_instrs", double(r.warpInstrs)},
                    {"telemetry.trace_bytes", double(bytes)},
                    {"telemetry.trace_chunks", double(chunks)},
                    {"telemetry.replay_events", double(events)}};
        return r;
    }

    RunConfig cfg_;
    std::string path_;
    std::vector<std::string> names_ = workloads::workloadNames();
    Checks warmChecks_;
};

} // anonymous namespace

std::unique_ptr<BenchWorkload>
makeTraceRoundtrip(const RunConfig &cfg)
{
    return std::make_unique<TraceRoundtrip>(cfg);
}

} // namespace perfbench
