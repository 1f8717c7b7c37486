/**
 * @file
 * The benchmark's own measurement layer: in-memory spans with
 * self-time arithmetic, sample statistics under the
 * percentile-with-sample-count rule, metric-name validation and a
 * small JSON writer. It depends on the standard library only, so the
 * unit tests link it without the gwc libraries.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSec();

/** One recorded call into a layer. */
struct Span
{
    std::string name;    ///< layer call, e.g. "runtime.run_suite"
    double start = 0;    ///< nowSec() at entry
    double end = 0;      ///< nowSec() at exit (== start while open)
    int64_t parent = -1; ///< index of the enclosing span, -1 at top
    uint64_t id = 0;     ///< pass, ladder or request id it belongs to
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost
 * one branch per scope. Thread-safe: spans may open on pool threads;
 * a span's parent is the innermost open span of the same tracer on
 * the calling thread unless one is given explicitly (cross-thread
 * children, e.g. pool tasks of a pass).
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool on) { enabled_.store(on); }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, uint64_t id);
        Scope(Tracer &t, std::string name, uint64_t id,
              int64_t parent);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of this span (-1 when the tracer is disabled). */
        int64_t index() const { return index_; }

      private:
        Tracer &tracer_;
        int64_t index_ = -1;
    };

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write one JSON object per span, one per line. */
    void writeJsonl(const std::string &path) const;

  private:
    int64_t open(std::string name, uint64_t id,
                 std::optional<int64_t> parent);
    void close(int64_t index);

    std::atomic<bool> enabled_;
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children. Overlapping children
 * (parallel work) are counted once; child time outside the parent's
 * interval is ignored.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Sum of span durations by name, over spans with the given id. */
std::map<std::string, double>
durationsByName(const std::vector<Span> &spans, uint64_t id);

/**
 * The @p q quantile (0..1) of @p v by linear interpolation between
 * closest ranks (numpy's default). @p v must not be empty.
 */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

/**
 * The highest reportable percentile of a sample: the largest of
 * 50, 90, 95, 99, 99.9 that leaves at least @p minBeyond samples
 * strictly above its rank, where the rank of percentile p in n
 * samples is ceil(n * p / 100). Empty when even the median leaves
 * fewer (n < 2 * minBeyond).
 */
std::optional<double> tailPercentile(size_t samples,
                                     size_t minBeyond = 10);

/** Samples above the rank of percentile @p pct in @p samples. */
size_t samplesBeyond(size_t samples, double pct);

/**
 * Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with
 * a letter or digit.
 */
bool validMetricName(std::string_view name);

/** Metric units: 1 to 16 characters of [A-Za-z0-9_/%.-]. */
bool validUnit(std::string_view unit);

/** JSON string literal of @p s (quotes and escapes included). */
std::string jsonString(std::string_view s);

/** Shortest round-trip JSON number of @p v (null when not finite). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
