#include "spans.hh"

#include <algorithm>
#include <fstream>

namespace perfbench
{

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               WallClock::now() - _epoch)
        .count();
}

int
SpanRecorder::open(std::string name, std::uint64_t request)
{
    Span s;
    s.name = std::move(name);
    s.request = request;
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.startUs = nowUs();
    _spans.push_back(std::move(s));
    const int id = static_cast<int>(_spans.size() - 1);
    _stack.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    _spans[static_cast<std::size_t>(id)].endUs = nowUs();
    // Scopes nest, so the span being closed is the innermost one.
    if (!_stack.empty() && _stack.back() == id)
        _stack.pop_back();
}

std::vector<double>
SpanRecorder::selfUs() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        _spans.size());
    for (const Span &s : _spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);

    std::vector<double> self(_spans.size(), 0.0);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Length of the union of the children, clipped to the span.
        double covered = 0.0;
        double reach = s.startUs;
        for (const auto &[b, e] : kids) {
            const double lo = std::max(b, reach);
            const double hi = std::min(e, s.endUs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(e, s.endUs));
        }
        self[i] = std::max(0.0, (s.endUs - s.startUs) - covered);
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::selfUsByName() const
{
    const std::vector<double> self = selfUs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        out[_spans[i].name] += self[i];
    return out;
}

double
SpanRecorder::rootUs() const
{
    double total = 0.0;
    for (const Span &s : _spans)
        if (s.parent < 0)
            total += s.endUs - s.startUs;
    return total;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\": "
            << jsonString(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber(s.startUs)
            << ", \"dur\": " << jsonNumber(s.endUs - s.startUs)
            << ", \"args\": {\"span\": " << i
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
