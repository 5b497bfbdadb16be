#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>

#include "core/percentile.hh"

namespace perfbench
{

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t tag)
{
    std::uint64_t z = seed + (tag + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Tail
tailOf(const std::vector<double> &samples)
{
    static constexpr double ladder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                        90.0, 75.0, 50.0};
    Tail t;
    t.samples = samples.size();
    for (const double p : ladder) {
        const double beyond =
            static_cast<double>(samples.size()) * (1.0 - p / 100.0);
        if (beyond >= 10.0 - 1e-9 || p == 50.0) {
            t.percentile = p;
            t.value = bioarch::core::percentile(samples, p);
            return t;
        }
    }
    return t;
}

double
median(std::vector<double> samples)
{
    return bioarch::core::percentile(samples, 50.0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    _metrics.push_back(Entry{name, value, unit});
}

void
Report::detail(const std::string &key, std::string json)
{
    _details.emplace_back(key, std::move(json));
}

void
Report::fail(const std::string &what)
{
    std::cerr << "perfbench: check failed: " << what << "\n";
    _failures.push_back(what);
}

std::uint64_t
Report::attempted() const
{
    std::uint64_t n = 0;
    for (const Phase &p : _phases)
        n += p.sent;
    return n;
}

std::uint64_t
Report::failed() const
{
    std::uint64_t n = 0;
    for (const Phase &p : _phases)
        n += p.failed;
    // A failed check that no phase counted (a metric or a trace
    // reconciliation) still fails one operation.
    return std::max<std::uint64_t>(n, _failures.empty() ? 0 : 1);
}

void
Report::print(const std::string &host_json) const
{
    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < _metrics.size(); ++i)
        metrics << (i ? ", " : "") << jsonString(_metrics[i].name)
                << ": {\"value\": " << jsonNumber(_metrics[i].value)
                << ", \"unit\": " << jsonString(_metrics[i].unit)
                << "}";
    metrics << "}";

    std::ostringstream detail;
    detail << "{\"host\": " << host_json << ", \"phases\": [";
    for (std::size_t i = 0; i < _phases.size(); ++i)
        detail << (i ? ", " : "") << "{\"name\": "
               << jsonString(_phases[i].name)
               << ", \"sent\": " << _phases[i].sent
               << ", \"succeeded\": " << _phases[i].succeeded
               << ", \"failed\": " << _phases[i].failed << "}";
    detail << "], \"failures\": [";
    for (std::size_t i = 0; i < _failures.size(); ++i)
        detail << (i ? ", " : "") << jsonString(_failures[i]);
    detail << "]";
    for (const auto &[key, json] : _details)
        detail << ", " << jsonString(key) << ": " << json;
    detail << ", \"metrics\": " << metrics.str() << "}";

    std::cout << "PERFBENCH_DETAIL " << detail.str() << "\n"
              << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << attempted()
              << ", \"failed\": " << failed()
              << ", \"metrics\": " << metrics.str() << "}"
              << std::endl;
}

} // namespace perfbench
