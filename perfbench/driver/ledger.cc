#include "ledger.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench
{

double
nowSec()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::pair<const Tracer *, int64_t>> tlsOpen;

} // anonymous namespace

Tracer::Scope::Scope(Tracer &t, std::string name, uint64_t id)
    : tracer_(t)
{
    if (t.enabled())
        index_ = t.open(std::move(name), id, std::nullopt);
}

Tracer::Scope::Scope(Tracer &t, std::string name, uint64_t id,
                     int64_t parent)
    : tracer_(t)
{
    if (t.enabled())
        index_ = t.open(std::move(name), id, parent);
}

Tracer::Scope::~Scope()
{
    if (index_ >= 0)
        tracer_.close(index_);
}

int64_t
Tracer::open(std::string name, uint64_t id,
             std::optional<int64_t> parent)
{
    int64_t par = -1;
    if (parent) {
        par = *parent;
    } else {
        for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it)
            if (it->first == this) {
                par = it->second;
                break;
            }
    }
    Span s;
    s.name = std::move(name);
    s.parent = par;
    s.id = id;
    int64_t index;
    {
        std::lock_guard<std::mutex> lock(mu_);
        index = int64_t(spans_.size());
        spans_.push_back(std::move(s));
        spans_.back().start = spans_.back().end = nowSec();
    }
    tlsOpen.emplace_back(this, index);
    return index;
}

void
Tracer::close(int64_t index)
{
    double t = nowSec();
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[size_t(index)].end = t;
    }
    for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it)
        if (it->first == this && it->second == index) {
            tlsOpen.erase(std::next(it).base());
            break;
        }
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    for (const Span &s : spans())
        os << "{\"name\":" << jsonString(s.name)
           << ",\"start\":" << jsonNumber(s.start)
           << ",\"end\":" << jsonNumber(s.end)
           << ",\"parent\":" << s.parent << ",\"id\":" << s.id
           << "}\n";
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t p = spans[i].parent;
        if (p >= 0 && size_t(p) < spans.size())
            children[size_t(p)].push_back(i);
    }
    std::vector<double> self(spans.size());
    std::vector<std::pair<double, double>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (size_t c : children[i]) {
            double a = std::max(spans[c].start, s.start);
            double b = std::min(spans[c].end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, double>
durationsByName(const std::vector<Span> &spans, uint64_t id)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        if (s.id == id)
            out[s.name] += s.end - s.start;
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        throw std::invalid_argument("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

size_t
samplesBeyond(size_t samples, double pct)
{
    // Per-mille arithmetic keeps 99.9 exact.
    uint64_t pm = uint64_t(std::llround(pct * 10.0));
    uint64_t rank = (uint64_t(samples) * pm + 999) / 1000;
    return rank >= samples ? 0 : size_t(samples - rank);
}

std::optional<double>
tailPercentile(size_t samples, size_t minBeyond)
{
    std::optional<double> best;
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9})
        if (samplesBeyond(samples, p) >= minBeyond)
            best = p;
    return best;
}

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // anonymous namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    for (char c : name)
        if (!isAlnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!isAlnum(c) && c != '_' && c != '/' && c != '%' &&
            c != '.' && c != '-')
            return false;
    return true;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace perfbench
