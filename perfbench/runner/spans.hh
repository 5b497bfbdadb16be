/**
 * @file
 * In-memory span recorder for the traced run. The runner wraps each
 * call into a library layer in a span (name, start, end, parent,
 * request id); spans stay in memory and are written once, at exit,
 * as Chrome trace-event JSON. A span's self time is its duration
 * minus the part of it that its child spans cover.
 *
 * Single-threaded: the traced run replays at jobs=1.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hh"

namespace perfbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
        std::uint64_t request = 0;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name,
              std::uint64_t request)
            : _rec(&rec), _id(rec.open(std::move(name), request))
        {
        }
        ~Scope() { _rec->close(_id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *_rec;
        int _id;
    };

    SpanRecorder() : _epoch(WallClock::now()) {}

    int open(std::string name, std::uint64_t request);
    void close(int id);

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time of every span (us), index-aligned with spans(). */
    std::vector<double> selfUs() const;
    /** Summed self time per span name (us). */
    std::map<std::string, double> selfUsByName() const;
    /** Summed duration of the root spans (us). */
    double rootUs() const;

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    double nowUs() const;

    WallClock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
