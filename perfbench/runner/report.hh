/**
 * @file
 * What one benchmark run reports: named metrics with units, the
 * per-phase request accounting, the host block, and the two output
 * lines: a detail object, then the one-line result object
 * {correct, attempted, failed, metrics} that run.py checks.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using WallClock = std::chrono::steady_clock;

inline double
msSince(WallClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               WallClock::now() - t0)
        .count();
}

/** Independent sub-seed @p tag of the run seed (SplitMix64). */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag);

/**
 * The highest percentile of a fixed ladder that still has at least
 * ten samples beyond it: the tail a run of this size can resolve.
 */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(const std::vector<double> &samples);

double median(std::vector<double> samples);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Requests of one phase: sent, succeeded, failed. */
struct Phase
{
    std::string name;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
};

class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Preformatted JSON value under @p key in the detail line. */
    void detail(const std::string &key, std::string json);
    void phase(const Phase &phase) { _phases.push_back(phase); }
    /** A failed output check, counted against the run. */
    void fail(const std::string &what);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    bool correct() const { return _failures.empty(); }

    /** Detail line, then the result line (always last). */
    void print(const std::string &host_json) const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> _metrics;
    std::vector<std::pair<std::string, std::string>> _details;
    std::vector<Phase> _phases;
    std::vector<std::string> _failures;
};

/** Shortest round-trip decimal form of @p v (JSON number). */
std::string jsonNumber(double v);
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
