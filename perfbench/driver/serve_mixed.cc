/**
 * @file
 * serve_mixed: a closed loop of 2 client connections to an in-process
 * service::Server (2 workers, session jobs clamped to 1, one shared
 * ResultCache prefilled during set-up). The seeded request stream is
 * cut into rounds; each round shuffles the 28 workloads into miss
 * requests of 1-4 workloads, each at a CTA stride not yet seen in the
 * run (they miss, simulate and admit), and puts three cache-hit
 * requests of 1-4 random workloads before every miss. Every round has
 * the same mix of request sizes. A pass is one round. The engine runs
 * only on misses; cache, JobSpec, wire and queue do the rest.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "common/flatjson.hh"
#include "common/rng.hh"
#include "metrics/profile_io.hh"
#include "runtime/jobspec.hh"
#include "runtime/result_cache.hh"
#include "runtime/session.hh"
#include "service/server.hh"
#include "workloads/suite.hh"

namespace perfbench
{

namespace
{

using namespace gwc;

constexpr unsigned kClients = 2;
constexpr unsigned kHitsPerMiss = 3;
/**
 * First CTA stride of the miss requests. Every miss takes the next
 * unseen stride; all lie above any workload's CTA count, so each miss
 * profiles exactly CTA 0 and does the same work however long the run.
 */
constexpr uint32_t kMissStrideBase = 1u << 20;

/** One blocking line-protocol connection to the server. */
class Connection
{
  public:
    explicit Connection(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(uint16_t(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("cannot connect to the server");
        }
    }
    ~Connection() { ::close(fd_); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one request line; return the response line. */
    std::string
    roundTrip(const std::string &line)
    {
        std::string out = line + "\n";
        size_t sent = 0;
        while (sent < out.size()) {
            ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send to the server failed");
            sent += size_t(n);
        }
        char chunk[65536];
        size_t nl;
        while ((nl = buf_.find('\n')) == std::string::npos) {
            ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                throw std::runtime_error("server closed the connection");
            buf_.append(chunk, size_t(n));
        }
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

struct Request
{
    std::string id;
    std::vector<std::string> workloads;
    uint32_t stride = 1; ///< 1 = prefilled (hit), else unseen (miss)
    bool miss() const { return stride != 1; }

    runtime::JobSpec
    spec() const
    {
        runtime::JobSpec s;
        s.workloads = workloads;
        s.session.tool = "perfbench";
        s.session.suite.jobs = 1;
        s.session.suite.verify = true;
        s.session.suite.ctaSampleStride = stride;
        return s;
    }
};

/** Outcome of one request, filled by a client thread. */
struct Reply
{
    std::string line;
    double ms = 0;
};

/** The result-cache key runSuite uses for a stride-1 workload. */
runtime::WorkloadKey
suiteKey(const std::string &name)
{
    runtime::WorkloadKey key;
    key.workload = name;
    metrics::Profiler::Config pcfg;
    key.ilpWarpCap = pcfg.ilpWarpCap;
    key.ilpLanes = pcfg.ilpLanes;
    key.reuseCap = pcfg.reuseCap;
    key.perLaunch = pcfg.perLaunch;
    key.collectors = "profile";
    return key;
}

class ServeMixed : public BenchWorkload
{
  public:
    explicit ServeMixed(const RunConfig &cfg)
        : cfg_(cfg), cacheDir_(cfg.workDir + "/serve_cache"),
          probeDir_(cfg.workDir + "/serve_probe_cache")
    {}

    ~ServeMixed() override { teardown(); }

    void
    setup() override
    {
        std::filesystem::remove_all(cacheDir_);
        std::filesystem::remove_all(probeDir_);

        // Prefill: the whole suite at stride 1 into the shared cache.
        runtime::SessionOptions o;
        o.tool = "perfbench";
        o.suite.jobs = cfg_.jobs;
        o.suite.verify = true;
        o.cacheDir = cacheDir_;
        o.cacheMode = "rw";
        {
            runtime::Session session(o);
            for (const auto &run : session.runSuite(names_)) {
                if (run.failed() || !run.verified)
                    throw std::runtime_error("prefill of " +
                                             run.desc.abbrev + " failed");
                profiles_[run.desc.abbrev] = run.profiles;
                executed_[run.desc.abbrev] = run.totals.warpInstrs;
            }
            session.finish();
        }

        service::ServerConfig sc;
        sc.host = "127.0.0.1";
        sc.port = 0;
        sc.workers = kClients;
        sc.maxSessionJobs = 1;
        sc.cacheDir = cacheDir_;
        sc.cacheMode = "rw";
        server_ = std::make_unique<service::Server>(sc);
        server_->start();
        for (unsigned c = 0; c < kClients; ++c)
            conns_.push_back(
                std::make_unique<Connection>(server_->tcpPort()));

        // Warm-up: one hit and one miss on every connection.
        for (unsigned c = 0; c < kClients; ++c) {
            for (uint32_t stride : {1u, nextStride_++}) {
                Request q{"warm" + std::to_string(c), {names_[c]}, stride};
                checkReply(q, conns_[c]->roundTrip(submitLine(q)),
                           warmChecks_, nullptr);
            }
        }
        entriesBefore_ = runtime::ResultCache::scan(cacheDir_, false).size();
    }

    PassResult
    pass(Tracer &tr, uint64_t id) override
    {
        PassResult r;
        const service::ServerCounters c0 = server_->counters();
        std::vector<Request> round = makeRound(round_++);
        std::vector<Reply> replies(round.size());
        const double t0 = nowSec();
        {
            Tracer::Scope roundSpan(tr, "bench.round", id);
            const int64_t parent = roundSpan.index();
            std::atomic<size_t> next{0};
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kClients; ++c)
                clients.emplace_back([&, c] {
                    while (true) {
                        const size_t i = next.fetch_add(1);
                        if (i >= round.size())
                            break;
                        const std::string line = submitLine(round[i]);
                        Tracer::Scope sc(tr, "service.request", id,
                                         parent);
                        const double sent = nowSec();
                        replies[i].line = conns_[c]->roundTrip(line);
                        replies[i].ms = since(sent) * 1e3;
                    }
                });
            for (auto &t : clients)
                t.join();
        }
        r.sec = since(t0);

        Tracer::Scope check(tr, "bench.check", id);
        std::vector<double> hitMs, missMs;
        for (size_t i = 0; i < round.size(); ++i) {
            r.requestMs.push_back(replies[i].ms);
            (round[i].miss() ? missMs : hitMs).push_back(replies[i].ms);
            r.warpInstrs +=
                checkReply(round[i], replies[i].line, r.checks,
                           missSamples_.size() < 2 ? &missSamples_
                                                   : nullptr);
        }
        const service::ServerCounters c1 = server_->counters();
        const double hits = double(c1.cacheHits - c0.cacheHits);
        const double misses = double(c1.cacheMisses - c0.cacheMisses);
        r.values = {
            {"service.requests", double(c1.requests - c0.requests)},
            {"service.jobs_failed", double(c1.jobsFailed - c0.jobsFailed)},
            {"service.jobs_rejected",
             double(c1.jobsRejected - c0.jobsRejected)},
            {"service.bad_requests",
             double(c1.badRequests - c0.badRequests)},
            {"runtime.cache_hits", hits},
            {"runtime.cache_misses", misses},
            {"runtime.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0},
        };
        r.checks.expect(c1.jobsFailed == c0.jobsFailed &&
                            c1.badRequests == c0.badRequests &&
                            c1.jobsRejected == c0.jobsRejected,
                        "round " + std::to_string(id) +
                            " has no failed, rejected or bad request");
        r.values["service.rtt_hit_ms"] = median(hitMs);
        r.values["service.rtt_miss_ms"] = median(missMs);
        r.values["simt.warp_instrs"] = double(r.warpInstrs);
        return r;
    }

    std::map<std::string, double>
    layers(const std::map<std::string, double> &,
           const PassResult &res) override
    {
        return res.values;
    }

    bool hasLadder() const override { return true; }

    /**
     * Outside the measured rounds: hit specs served one at a time and
     * run through runJobLocally on the shared cache (the difference is
     * the service overhead), and direct cache lookups and stores.
     */
    std::map<std::string, double>
    ladder(Tracer &tr, uint64_t id) override
    {
        std::vector<double> servedMs, localMs, lookupMs, storeMs;
        std::vector<Request> round = makeLadderRound(ladder_++);
        for (const auto &q : round) {
            std::string line;
            {
                Tracer::Scope sc(tr, "service.request", id);
                const double t0 = nowSec();
                line = conns_[0]->roundTrip(submitLine(q));
                servedMs.push_back(since(t0) * 1e3);
            }
            checkReply(q, line, ladderChecks_, nullptr);
            runtime::JobSpec spec = q.spec();
            spec.session.cacheDir = cacheDir_;
            spec.session.cacheMode = "ro";
            runtime::JobResult jr;
            {
                Tracer::Scope sc(tr, "runtime.job_local", id);
                const double t0 = nowSec();
                jr = runtime::runJobLocally(spec);
                localMs.push_back(since(t0) * 1e3);
            }
            ladderChecks_.expect(jr.exitCode == 0 &&
                                     jr.profilesCsv == expectedCsv(q),
                                 q.id + " local bytes equal served bytes");
        }
        runtime::ResultCache probe({cacheDir_, runtime::CacheMode::ReadOnly});
        runtime::ResultCache sink({probeDir_, runtime::CacheMode::ReadWrite});
        for (const auto &name : names_) {
            std::optional<runtime::CachedWorkloadResult> hit;
            {
                Tracer::Scope sc(tr, "runtime.cache_lookup", id);
                const double t0 = nowSec();
                hit = probe.lookupWorkload(suiteKey(name));
                lookupMs.push_back(since(t0) * 1e3);
            }
            if (!ladderChecks_.expect(hit.has_value(),
                                      name + " prefilled entry is served"))
                continue;
            Tracer::Scope sc(tr, "runtime.cache_store", id);
            const double t0 = nowSec();
            ladderChecks_.expect(sink.storeWorkload(suiteKey(name), *hit),
                                 name + " entry is admitted");
            storeMs.push_back(since(t0) * 1e3);
        }
        probeStale_ += probe.counters().stale.load();
        std::filesystem::remove_all(probeDir_);
        return {{"runtime.job_local_ms", median(localMs)},
                {"service.overhead_ms", median(servedMs) - median(localMs)},
                {"runtime.cache_lookup_ms", median(lookupMs)},
                {"runtime.cache_store_ms",
                 storeMs.empty() ? 0.0 : median(storeMs)}};
    }

    std::string
    referenceDigest(Checks &checks) override
    {
        // Misses cannot be compared against the prefill; re-run the
        // first sampled miss specs locally, uncached, at full jobs.
        for (const auto &[q, served] : missSamples_) {
            runtime::JobSpec spec = q.spec();
            spec.session.suite.jobs = cfg_.jobs;
            runtime::JobResult jr = runtime::runJobLocally(spec);
            checks.expect(jr.exitCode == 0 && jr.profilesCsv == served,
                          q.id + " served miss equals a local run");
        }
        return "";
    }

    std::map<std::string, double>
    runLayers(Checks &checks) override
    {
        checks.add(warmChecks_);
        checks.add(ladderChecks_);
        uint64_t invalid = 0;
        for (const auto &e : runtime::ResultCache::scan(cacheDir_, true))
            invalid += e.valid ? 0 : 1;
        checks.expect(invalid == 0, "every cache entry passes a deep scan");
        return {
            {"runtime.cache_admitted",
             double(runtime::ResultCache::scan(cacheDir_, false).size() -
                    entriesBefore_)},
            {"runtime.cache_stale", double(invalid + probeStale_)},
        };
    }

    std::vector<std::string>
    layerNames() const override
    {
        return {"simt.warp_instrs",        "runtime.job_local_ms",
                "runtime.cache_lookup_ms", "runtime.cache_store_ms",
                "runtime.cache_hits",      "runtime.cache_misses",
                "runtime.cache_admitted",  "runtime.cache_stale",
                "runtime.cache_hit_ratio", "service.rtt_hit_ms",
                "service.rtt_miss_ms",     "service.overhead_ms",
                "service.requests",        "service.jobs_failed",
                "service.jobs_rejected",   "service.bad_requests"};
    }

    void
    teardown() override
    {
        conns_.clear();
        if (server_) {
            server_->stop(true);
            server_.reset();
        }
    }

  private:
    static std::string
    submitLine(const Request &q)
    {
        return "{\"proto\":1,\"type\":\"submit\",\"id\":\"" + q.id +
               "\",\"job\":" + q.spec().toJson() + "}";
    }

    /** Profile CSV a hit must return, from the prefill. */
    std::string
    expectedCsv(const Request &q) const
    {
        std::vector<metrics::KernelProfile> rows;
        for (const auto &w : q.workloads) {
            const auto &p = profiles_.at(w);
            rows.insert(rows.end(), p.begin(), p.end());
        }
        std::ostringstream os;
        metrics::writeProfilesCsv(os, rows);
        return os.str();
    }

    /**
     * Check one response; return the warp instructions its misses
     * executed. With @p samples, keep the first miss replies for
     * comparison against local runs.
     */
    uint64_t
    checkReply(const Request &q, const std::string &line, Checks &checks,
               std::vector<std::pair<Request, std::string>> *samples)
    {
        FlatJson doc;
        try {
            doc = parseFlatJson("response", line);
        } catch (const std::exception &) {
        }
        if (!checks.expect(doc.strs["type"] == "result",
                           q.id + " gets a result envelope"))
            return 0;
        auto res = runtime::parseJobResultFlat(doc, "result");
        if (!checks.expect(res.ok() && res.value().exitCode == 0,
                           q.id + " job succeeds"))
            return 0;
        const runtime::JobResult &jr = res.value();
        bool rowsOk = jr.rows.size() == q.workloads.size();
        uint64_t simulated = 0;
        for (const auto &row : jr.rows) {
            rowsOk = rowsOk && row.verified && row.cached == !q.miss();
            if (!row.cached && executed_.count(row.name))
                simulated += executed_.at(row.name);
        }
        checks.expect(rowsOk, q.id + " rows verified, " +
                                  (q.miss() ? "simulated" : "cached"));
        if (q.miss()) {
            if (samples)
                samples->emplace_back(q, jr.profilesCsv);
        } else {
            checks.expect(jr.profilesCsv == expectedCsv(q),
                          q.id + " served bytes equal local bytes");
        }
        return simulated;
    }

    /** @p n distinct workloads drawn from @p rng. */
    std::vector<std::string>
    drawWorkloads(Rng &rng, size_t n) const
    {
        std::vector<std::string> pool = names_;
        for (size_t i = 0; i < n; ++i)
            std::swap(pool[i], pool[i + rng.nextBelow(pool.size() - i)]);
        pool.resize(n);
        return pool;
    }

    /** Fisher-Yates shuffle of @p v driven by @p rng. */
    template <typename T>
    static void
    shuffle(std::vector<T> &v, Rng &rng)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.nextBelow(i)]);
    }

    /**
     * Round @p r of the stream: a seeded shuffle of the suite cut into
     * miss requests, each preceded by three hits. Request sizes (1-4
     * workloads) cycle 1, 2, 3, 4 and are then shuffled, so every
     * round has the same mix of sizes and the seed decides which
     * workloads go together and in what order.
     */
    std::vector<Request>
    makeRound(uint64_t r)
    {
        Rng rng(subSeed(cfg_.seed, 1000 + r));
        std::vector<std::string> order = names_;
        shuffle(order, rng);
        std::vector<size_t> missSizes;
        for (size_t sum = 0; sum < order.size();) {
            size_t take =
                std::min<size_t>(1 + missSizes.size() % 4, order.size() - sum);
            missSizes.push_back(take);
            sum += take;
        }
        std::vector<size_t> hitSizes(kHitsPerMiss * missSizes.size());
        for (size_t i = 0; i < hitSizes.size(); ++i)
            hitSizes[i] = 1 + i % 4;
        shuffle(missSizes, rng);
        shuffle(hitSizes, rng);

        std::vector<Request> out;
        size_t pos = 0, n = 0;
        auto rid = [&] {
            return "r" + std::to_string(r) + "-" + std::to_string(n++);
        };
        for (size_t m = 0; m < missSizes.size(); ++m) {
            for (unsigned h = 0; h < kHitsPerMiss; ++h)
                out.push_back(
                    {rid(),
                     drawWorkloads(rng, hitSizes[m * kHitsPerMiss + h]),
                     1});
            out.push_back({rid(),
                           {order.begin() + long(pos),
                            order.begin() + long(pos + missSizes[m])},
                           nextStride_++});
            pos += missSizes[m];
        }
        return out;
    }

    /** Eight hit requests for the ladder's local runs. */
    std::vector<Request>
    makeLadderRound(uint64_t r) const
    {
        Rng rng(subSeed(cfg_.seed, 500000 + r));
        std::vector<Request> out;
        for (int i = 0; i < 8; ++i)
            out.push_back({"l" + std::to_string(r) + "-" + std::to_string(i),
                           drawWorkloads(rng, 1 + rng.nextBelow(4)), 1});
        return out;
    }

    RunConfig cfg_;
    std::string cacheDir_, probeDir_;
    std::vector<std::string> names_ = workloads::workloadNames();
    std::map<std::string, std::vector<metrics::KernelProfile>> profiles_;
    /** Warp instructions one full run of each workload executes (a
     * miss row reports only its sampled CTAs). */
    std::map<std::string, uint64_t> executed_;
    std::unique_ptr<service::Server> server_;
    std::vector<std::unique_ptr<Connection>> conns_;
    uint32_t nextStride_ = kMissStrideBase;
    uint64_t round_ = 0, ladder_ = 0;
    size_t entriesBefore_ = 0;
    uint64_t probeStale_ = 0;
    std::vector<std::pair<Request, std::string>> missSamples_;
    Checks warmChecks_, ladderChecks_;
};

} // anonymous namespace

std::unique_ptr<BenchWorkload>
makeServeMixed(const RunConfig &cfg)
{
    return std::make_unique<ServeMixed>(cfg);
}

} // namespace perfbench
