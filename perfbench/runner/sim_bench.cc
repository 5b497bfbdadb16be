/**
 * @file
 * sim_characterize: the paper's five traced workloads, simulated in
 * full on 8-way x {Me1, Me4} and through the sampler, checked
 * against fingerprints recorded in the benchmark's directory.
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "affinity.hh"
#include "bench.hh"
#include "bio/random.hh"
#include "core/digest.hh"
#include "core/suite.hh"
#include "kernels/factory.hh"
#include "sim/sample.hh"

namespace perfbench
{

using namespace bioarch;

std::string
kindKey(kernels::Workload w)
{
    std::string s(kernels::workloadName(w));
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

namespace
{

std::uint64_t
traceDigest(const trace::Trace &tr)
{
    core::Fnv1a h;
    h.update64(tr.size());
    for (const isa::Inst &i : tr.insts()) {
        h.update64(i.pc);
        h.update64(i.dst);
        for (const isa::RegId r : i.src)
            h.update64(r);
        h.update64(i.addr);
        h.update64(static_cast<std::uint64_t>(i.cls)
                   | std::uint64_t{i.size} << 8
                   | std::uint64_t{i.taken} << 16
                   | std::uint64_t{i.conditional} << 24);
    }
    return h.digest();
}

/**
 * Recorded values, one "<key> <value>" per line; keys name the
 * working-set size, workload and what was recorded.
 */
class Goldens
{
  public:
    explicit Goldens(std::string path) : _path(std::move(path))
    {
        std::ifstream in(_path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key;
            std::uint64_t value = 0;
            if (fields >> key >> value)
                _values[key] = value;
        }
    }

    std::optional<std::uint64_t>
    get(const std::string &key) const
    {
        const auto it = _values.find(key);
        if (it == _values.end())
            return std::nullopt;
        return it->second;
    }

    void set(const std::string &key, std::uint64_t v)
    {
        _values[key] = v;
    }

    bool
    save() const
    {
        std::ofstream out(_path);
        out << "# Simulator goldens of the benchmark: trace digests "
               "and full-run SimStats\n# fingerprints, keyed "
               "db<sequences>.<workload>.<what>. Rewrite with the "
               "runner's\n# --write-golden only after an "
               "intentional model or kernel change.\n";
        for (const auto &[k, v] : _values)
            out << k << " " << v << "\n";
        return static_cast<bool>(out);
    }

  private:
    std::string _path;
    std::map<std::string, std::uint64_t> _values;
};

/** Check @p value against the golden @p key (or record it). */
void
checkGolden(const Options &opt, Goldens &goldens,
            const std::string &key, std::uint64_t value,
            Report &report, std::uint64_t &failed)
{
    if (opt.writeGolden) {
        goldens.set(key, value);
        return;
    }
    const std::optional<std::uint64_t> want = goldens.get(key);
    if (!want) {
        report.fail("no golden recorded for " + key);
        ++failed;
    } else if (*want != value) {
        report.fail(key + " = " + std::to_string(value)
                    + ", golden " + std::to_string(*want));
        ++failed;
    }
}

/**
 * The sampled arm's plan: ~50 windows of 4k instructions per
 * trace. sim_characterize uses bench_sim_speed's multi-core plan
 * shape, 8-window chunks with full-prefix warmup, so the functional
 * warming its chunks repeat is part of the measured work; the serve
 * workloads' small working set is one chunk. The plan, and with it
 * the result, does not depend on the job count; the arm runs at
 * jobs=1, since sampleTrace starts its own pool on every call and
 * those threads cannot be placed (see affinity.hh).
 */
sim::SampleConfig
samplePlan(const trace::Trace &tr, bool chunked)
{
    sim::SampleConfig s;
    s.windowInsts = 4'000;
    s.periodInsts =
        std::max<std::uint64_t>(s.windowInsts, (tr.size() + 49) / 50);
    s.jobs = 1;
    if (chunked) {
        s.chunkWindows = 8;
        s.warmupInsts = std::uint64_t{1} << 60; // full prefix
    }
    return s;
}

/** Wall time of one round of the paper working set, for sizing. */
constexpr double kRoundSeconds = 4.0;

struct Point
{
    std::size_t kind = 0;
    int memory = 0; ///< 0 = Me1, 1 = Me4
};

/**
 * What one point measured: its work, the same in every round, and
 * its best host times over the rounds. The simulator's speed on a
 * shared host swings by up to 2x, each vCPU on its own schedule, for
 * seconds to a minute at a time (measured on a 4-vCPU VM: 7.5 to
 * 16.5 Minst/s on one pinned vCPU, the same trace in a loop). So
 * each round runs on the next CPU in turn, and the rates are
 * best-of-rounds per point, as timeit reports its best repetition:
 * a slower program moves every round.
 */
struct PointRecord
{
    double insts = 0.0;
    double represented = 0.0;
    double measured = 0.0;
    double warm = 0.0;
    double ipcErr = 0.0;
    double bestFullMs = 0.0;
    double bestSampledMs = 0.0;
};

} // namespace

struct Characterizer::State
{
    const Options &opt;
    std::vector<kernels::Workload> kinds;
    bool isWorkload;
    Report &report;
    SpanRecorder *spans;
    Goldens goldens;
    std::string prefix;

    std::vector<kernels::TracedRun> runs;
    std::vector<double> tracegenMs;
    std::uint64_t traceBytes = 0;
    std::vector<Point> points;
    bioarch::bio::Rng order;
    Phase phase;

    std::map<std::pair<std::size_t, int>, PointRecord> records;
    /** Time of each request: one kind on both memories in a round. */
    std::vector<double> requestMs;
    std::vector<double> roundQps;
    /** Detailed rate of each whole round, for the detail line. */
    std::vector<double> roundDetailed;
    double tracedUs = 0.0;
    double untracedUs = 0.0;

    State(const Options &o, std::vector<kernels::Workload> k, bool req,
          Report &r, SpanRecorder *sp)
        : opt(o), kinds(std::move(k)), isWorkload(req),
          report(r), spans(sp), goldens(o.golden),
          order(subSeed(o.seed, 7)),
          phase{req ? "characterize" : "sim_probe"}
    {
    }

    void round();
};

Characterizer::Characterizer(const Options &opt,
                             const kernels::TraceSpec &spec,
                             std::vector<kernels::Workload> kinds,
                             bool is_workload,
                             std::vector<double> &setup_ms,
                             Report &report, SpanRecorder *spans)
    : _s(std::make_unique<State>(opt, std::move(kinds),
                                 is_workload, report, spans))
{
    State &s = *_s;
    s.prefix = "db" + std::to_string(spec.dbSequences) + ".";
    // Set-up: trace generation, repeated; the last one is kept.
    s.tracegenMs.assign(s.kinds.size(), 0.0);
    for (std::size_t rep = 0; rep < setup_ms.size(); ++rep) {
        s.runs.clear();
        s.runs.shrink_to_fit();
        const WallClock::time_point t0 = WallClock::now();
        const kernels::TraceInput input =
            kernels::makeTraceInput(spec);
        const bool last = rep + 1 == setup_ms.size();
        for (std::size_t k = 0; k < s.kinds.size(); ++k) {
            const WallClock::time_point tk = WallClock::now();
            std::optional<SpanRecorder::Scope> span;
            if (last && spans != nullptr)
                span.emplace(*spans, "tracegen." + kindKey(s.kinds[k]),
                             0);
            s.runs.push_back(kernels::traceWorkload(s.kinds[k], input));
            if (last)
                s.tracegenMs[k] = msSince(tk);
        }
        setup_ms[rep] += msSince(t0);
    }
    // Each trace-digest check is one operation of the phase.
    for (std::size_t k = 0; k < s.kinds.size(); ++k) {
        s.traceBytes += s.runs[k].trace.memoryBytes();
        std::uint64_t failed = 0;
        checkGolden(opt, s.goldens,
                    s.prefix + kindKey(s.kinds[k]) + ".trace",
                    traceDigest(s.runs[k].trace), report, failed);
        ++s.phase.sent;
        s.phase.failed += failed;
        s.phase.succeeded += 1 - failed;
        for (int m = 0; m < 2; ++m)
            s.points.push_back(Point{k, m});
    }
}

Characterizer::~Characterizer() = default;

void
Characterizer::runFor(double budget_s)
{
    const WallClock::time_point start = WallClock::now();
    do
        _s->round();
    while (msSince(start) < budget_s * 1000.0);
}

void
Characterizer::runRounds(int rounds)
{
    for (int i = 0; i < std::max(1, rounds); ++i)
        _s->round();
}

void
Characterizer::State::round()
{
    static const std::array<sim::MemoryConfig, 2> memories = {
        sim::memoryMe1(), sim::memoryMe4()};
    const bool first = roundQps.empty();
    pinSelfToCpu(static_cast<unsigned>(roundQps.size()));
    const WallClock::time_point round_start = WallClock::now();
    double r_insts = 0.0;
    double r_ms = 0.0;
    std::vector<double> kind_ms(kinds.size(), 0.0);
    // The seed sets the order the points are issued in.
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[order.below(i)]);
    for (const Point &p : points) {
        const trace::Trace &tr = runs[p.kind].trace;
        sim::SimConfig cfg;
        cfg.core = sim::core8Way();
        cfg.memory = memories[static_cast<std::size_t>(p.memory)];
        const sim::SampleConfig plan =
            samplePlan(tr, isWorkload);
        const std::string key =
            prefix + kindKey(kinds[p.kind]) + "." + cfg.memory.name;

        const WallClock::time_point t0 = WallClock::now();
        const sim::SimStats full = core::simulate(tr, cfg);
        const double full_ms = msSince(t0);
        const WallClock::time_point t1 = WallClock::now();
        const sim::SampledStats sampled = sim::sampleTrace(tr, cfg, plan);
        const double smpl_ms = msSince(t1);
        if (spans != nullptr) {
            // Traced twin of the same point, for the overhead.
            const WallClock::time_point t2 = WallClock::now();
            {
                const SpanRecorder::Scope point(*spans, "point", 0);
                {
                    const SpanRecorder::Scope s(*spans, "simulate", 0);
                    (void)core::simulate(tr, cfg);
                }
                const SpanRecorder::Scope s(*spans, "sample", 0);
                (void)sim::sampleTrace(tr, cfg, plan);
            }
            tracedUs += msSince(t2) * 1000.0;
            untracedUs += (full_ms + smpl_ms) * 1000.0;
        }

        ++phase.sent;
        std::uint64_t failed = 0;
        if (first)
            checkGolden(opt, goldens, key, full.fingerprint(), report,
                        failed);
        const double err = sim::compareSampled(sampled, full).ipcPct;
        const auto [it, fresh] =
            records.try_emplace(std::make_pair(p.kind, p.memory));
        PointRecord &rec = it->second;
        if (fresh) {
            rec.insts = static_cast<double>(full.instructions);
            rec.represented =
                static_cast<double>(sampled.traceInstructions);
            rec.measured =
                static_cast<double>(sampled.measuredInstructions);
            rec.warm = static_cast<double>(sampled.warmupInstructions);
            rec.ipcErr = err;
            rec.bestFullMs = full_ms;
            rec.bestSampledMs = smpl_ms;
        } else if (rec.ipcErr != err) {
            report.fail(key + " sampled IPC not deterministic");
            ++failed;
        }
        rec.bestFullMs = std::min(rec.bestFullMs, full_ms);
        rec.bestSampledMs = std::min(rec.bestSampledMs, smpl_ms);
        phase.failed += std::min<std::uint64_t>(failed, 1);
        phase.succeeded += failed == 0 ? 1 : 0;

        kind_ms[p.kind] += full_ms + smpl_ms;
        r_insts += rec.insts;
        r_ms += full_ms;
    }
    roundQps.push_back(static_cast<double>(kinds.size()) * 1000.0
                       / msSince(round_start));
    requestMs.insert(requestMs.end(), kind_ms.begin(), kind_ms.end());
    pinControlThread();
    roundDetailed.push_back(r_insts / 1e3 / r_ms);
}

void
Characterizer::finish()
{
    State &s = *_s;
    const Options &opt = s.opt;
    Report &report = s.report;
    report.phase(s.phase);
    if (opt.writeGolden && !s.goldens.save())
        report.fail("cannot write " + opt.golden);

    double max_err = 0.0;
    PointRecord all;
    std::array<PointRecord, 2> by_memory;
    for (const auto &[point, rec] : s.records) {
        max_err = std::max(max_err, rec.ipcErr);
        for (PointRecord *sum :
             {&all, &by_memory[static_cast<std::size_t>(point.second)]}) {
            sum->insts += rec.insts;
            sum->represented += rec.represented;
            sum->measured += rec.measured;
            sum->warm += rec.warm;
            sum->bestFullMs += rec.bestFullMs;
            sum->bestSampledMs += rec.bestSampledMs;
        }
    }
    const auto rate = [](double num, double den) {
        return den <= 0.0 ? 0.0 : num / den;
    };
    std::string per_round;
    for (const double r : s.roundDetailed)
        per_round += (per_round.empty() ? "" : ", ") + jsonNumber(r);
    report.detail(s.phase.name,
                  "{\"detailed_minst_per_s_by_round\": [" + per_round
                      + "], \"rounds\": "
                      + std::to_string(s.roundQps.size())
                      + ", \"points\": "
                      + std::to_string(s.roundQps.size() * s.points.size())
                      + "}");

    if (!opt.trace) {
        if (s.isWorkload) {
            // Five request classes of distinct cost: with an odd
            // count the median sits inside one, not on an edge.
            const Tail tail = tailOf(s.requestMs);
            report.metric("qps", median(s.roundQps), "1/s");
            report.metric("latency_p50_ms", median(s.requestMs), "ms");
            report.metric("latency_tail_ms", tail.value, "ms");
            report.detail("latency_tail",
                          "{\"percentile\": "
                              + jsonNumber(tail.percentile)
                              + ", \"samples\": "
                              + std::to_string(tail.samples) + "}");
        }
        report.metric("sim_minst_per_s",
                      rate(all.insts / 1e3, all.bestFullMs), "Minst/s");
        report.metric("sampled_minst_per_s",
                      rate(all.represented / 1e3, all.bestSampledMs),
                      "Minst/s");
        report.metric("sampled_ipc_err_pct", max_err, "%");
        return;
    }

    for (const kernels::Workload w : kernels::allWorkloads) {
        double ms = 0.0;
        for (std::size_t k = 0; k < s.kinds.size(); ++k)
            if (s.kinds[k] == w)
                ms = s.tracegenMs[k];
        report.metric("kernels.tracegen_ms." + kindKey(w), ms, "ms");
    }
    report.metric("trace.bytes", static_cast<double>(s.traceBytes),
                  "bytes");
    report.metric("sim.detailed_ns_per_inst.me1",
                  rate(by_memory[0].bestFullMs * 1e6, by_memory[0].insts),
                  "ns");
    report.metric("sim.detailed_ns_per_inst.me4",
                  rate(by_memory[1].bestFullMs * 1e6, by_memory[1].insts),
                  "ns");
    report.metric("sim.sampled_ms",
                  rate(all.bestSampledMs,
                       static_cast<double>(s.records.size())),
                  "ms");
    report.metric("sim.sampled_measured_frac",
                  rate(all.measured, all.represented), "frac");
    report.metric("sim.sampled_warm_per_inst",
                  rate(all.warm, all.represented), "frac");
    if (s.isWorkload && s.spans != nullptr)
        finishTrace(opt, *s.spans, s.tracedUs, s.untracedUs, report);
}

void
runSimWorkload(const Options &opt, Report &report)
{
    kernels::TraceSpec spec; // the paper's query, fixed working set
    spec.dbSequences = opt.simDbSeqs;
    std::vector<kernels::Workload> kinds(
        std::begin(kernels::allWorkloads),
        std::end(kernels::allWorkloads));
    std::vector<double> setup_ms(
        static_cast<std::size_t>(std::max(1, opt.setupReps)), 0.0);
    SpanRecorder spans;
    Characterizer chr(opt, spec, std::move(kinds), true, setup_ms, report,
                      opt.trace ? &spans : nullptr);
    // A fixed number of rounds (about --seconds on a 4-vCPU avx2
    // host; a traced run also runs each point's traced twin) keeps
    // the request count, and with it the percentile the tail is read
    // at, independent of the host's speed.
    chr.runRounds(static_cast<int>(std::ceil(
        opt.seconds / kRoundSeconds / (opt.trace ? 2.0 : 1.0))));
    chr.finish();
    if (opt.trace) {
        reportIdleServeLayers(report);
    } else {
        report.metric("setup_s", median(setup_ms) / 1000.0, "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    }
}

} // namespace perfbench
