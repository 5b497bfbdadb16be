#include "sample.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/digest.hh"
#include "core/thread_pool.hh"

namespace bioarch::sim
{

std::string
SampleConfig::validate() const
{
    if (windowInsts == 0)
        return "sample window must be a positive instruction count";
    if (periodInsts == 0)
        return "sample period must be a positive instruction count";
    if (windowInsts > periodInsts)
        return "sample window (" + std::to_string(windowInsts)
            + ") must not exceed the sample period ("
            + std::to_string(periodInsts) + ")";
    if (chunkWindows == 0)
        return "sample chunk must hold at least one window";
    if (jobs == 0)
        return "sample jobs must be at least 1";
    return "";
}

namespace
{

/** splitmix64: the offset scrambler for window placement. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::vector<SampleWindow>
planWindows(std::uint64_t traceInsts, const SampleConfig &config)
{
    std::vector<SampleWindow> windows;
    if (traceInsts == 0)
        return windows;

    // One window per period. The window sits at a *pseudo-random
    // offset* within its period (deterministic — a fixed hash of
    // the period index — so plans never depend on anything but the
    // config): strict period-start placement resonates with loopy
    // programs whose phase structure divides the period, and the
    // aliased estimate can be off by 10x the jittered one. Each
    // window stands for exactly its period's instructions, so the
    // represents counts partition the trace.
    std::uint64_t index = 0;
    for (std::uint64_t periodBegin = 0; periodBegin < traceInsts;
         periodBegin += config.periodInsts, ++index) {
        const std::uint64_t span =
            std::min(config.periodInsts, traceInsts - periodBegin);
        SampleWindow w;
        w.count = std::min(config.windowInsts, span);
        const std::uint64_t slack = span - w.count;
        w.begin = periodBegin
            + (slack == 0 ? 0 : mix64(index) % (slack + 1));
        w.represents = span;
        w.warmupBegin = w.begin >= config.warmupInsts
            ? w.begin - config.warmupInsts
            : 0;
        windows.push_back(w);
    }
    return windows;
}

double
SampledStats::traumaShare(Trauma t) const
{
    const std::uint64_t total = measured.traumas.total();
    return total == 0
        ? 0.0
        : static_cast<double>(measured.traumas.get(t))
            / static_cast<double>(total);
}

std::uint64_t
SampledStats::fingerprint() const
{
    core::Fnv1a fnv;
    fnv.update64(measured.fingerprint());
    fnv.update64(windows);
    fnv.update64(traceInstructions);
    fnv.update64(measuredInstructions);
    fnv.update64(warmupInstructions);
    fnv.update64(dl1Accesses);
    fnv.update64(dl1Misses);
    fnv.update64(l2Accesses);
    fnv.update64(l2Misses);
    fnv.update64(std::bit_cast<std::uint64_t>(estimatedCycles));
    return fnv.digest();
}

namespace
{

/** Relative error in percent; absolute (scaled) when the reference
 * is effectively zero, so empty counters do not divide by zero. */
double
relErrorPct(double sampled, double full)
{
    const double diff =
        sampled >= full ? sampled - full : full - sampled;
    if (full > 1e-9 || full < -1e-9)
        return 100.0 * diff / (full < 0 ? -full : full);
    return 100.0 * diff;
}

} // namespace

SampleError
compareSampled(const SampledStats &sampled, const SimStats &full)
{
    SampleError err;
    err.ipcPct = relErrorPct(sampled.ipc(), full.ipc());
    err.dl1MissRatePct =
        relErrorPct(sampled.dl1MissRate(), full.dl1MissRate());
    const double fullL2 = full.l2Accesses == 0
        ? 0.0
        : static_cast<double>(full.l2Misses)
            / static_cast<double>(full.l2Accesses);
    err.l2MissRatePct = relErrorPct(sampled.l2MissRate(), fullL2);

    const std::uint64_t fullTotal = full.traumas.total();
    for (int t = 0; t < numTraumas; ++t) {
        const Trauma trauma = static_cast<Trauma>(t);
        const double fullShare = fullTotal == 0
            ? 0.0
            : static_cast<double>(full.traumas.get(trauma))
                / static_cast<double>(fullTotal);
        const double diff =
            100.0 * (sampled.traumaShare(trauma) - fullShare);
        const double pts = diff < 0 ? -diff : diff;
        if (pts > err.traumaSharePts)
            err.traumaSharePts = pts;
    }
    return err;
}

std::uint64_t
warmCheckpoints(const trace::Trace &trace, const SimConfig &machine,
                const std::vector<std::uint64_t> &stops,
                const std::function<void(std::size_t, MachineState)>
                    &visit)
{
    if (stops.empty())
        return 0;
    MachineState pass(machine);
    std::uint64_t at = 0;
    for (std::size_t k = 0; k < stops.size(); ++k) {
        const std::uint64_t stop = stops[k];
        pass.warm(trace.subspan(at, stop - at));
        at = stop;
        if (k + 1 == stops.size())
            visit(k, std::move(pass));
        else
            visit(k, pass.snapshot());
    }
    return stops.back();
}

SampledStats
sampleTrace(const trace::Trace &trace, const SimConfig &machine,
            const SampleConfig &config)
{
    const std::string problem = config.validate();
    if (!problem.empty())
        throw std::invalid_argument(problem);

    const std::vector<SampleWindow> windows =
        planWindows(trace.size(), config);

    // Chunks are the parallel unit. A chunk starts from machine
    // state warm up to its first window, then alternates detailed
    // measurement (runWindow) with functional warming of the
    // inter-window gaps, so every window after a chunk's first
    // carries *continuous* state history — the bounded-warmup
    // error is paid once per chunk, not once per window. The chunk
    // partition depends only on the config, and results land in
    // index-ordered slots merged after the pool drains, so the
    // aggregate is bit-identical whatever the execution schedule
    // was.
    //
    // A chunk whose warmup reaches back to the trace's head (every
    // chunk of a full-prefix plan, the lone chunk of a single-chunk
    // plan, the leading chunks of any plan) starts from a
    // checkpoint of one shared functional pass (warmCheckpoints),
    // so the prefix warming of all such chunks costs one walk of
    // the trace, not one per chunk. Each checkpoint goes to the
    // pool the moment it exists, so chunks run while the pass
    // walks on. Chunks with a bounded warmup start cold at their
    // warmupBegin.
    //
    // Cache miss rates are never extrapolated from windows: the
    // functional stream covers the complete trace and the
    // whole-trace dl1/l2 counters are read off the machine state.
    // When the last chunk starts from a checkpoint, its own walk
    // [0, lastWindowEnd) plus a warmed tail IS the coverage
    // stream, for free. Only a plan whose last chunk has a bounded
    // warmup needs a dedicated coverage pass as one extra task.
    std::vector<SimStats> results(windows.size());
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            config.chunkWindows, windows.size()));
    const std::size_t chunks =
        chunk == 0 ? 0 : (windows.size() + chunk - 1) / chunk;
    // The chunks warmed from the trace's head: a lone chunk, or
    // the leading run whose warmupBegin is 0 (warmupBegin never
    // decreases along the plan).
    std::size_t headChunks = 0;
    while (headChunks < chunks
           && (chunks == 1
               || windows[headChunks * chunk].warmupBegin == 0))
        ++headChunks;
    const bool lastCovers = chunks > 0 && headChunks == chunks;
    std::uint64_t dl1_accesses = 0;
    std::uint64_t dl1_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    const auto harvest = [&](const MachineState &state) {
        dl1_accesses = state.dataHierarchy().dl1().accesses();
        dl1_misses = state.dataHierarchy().dl1().misses();
        l2_accesses = state.dataHierarchy().l2().accesses();
        l2_misses = state.dataHierarchy().l2().misses();
    };
    // Measure chunk @p c from @p state, warm up to its first
    // window.
    const auto measureChunk = [&](std::size_t c, MachineState &state) {
        const std::size_t first = c * chunk;
        const std::size_t last =
            std::min(first + chunk, windows.size());
        Simulator sim(machine);
        for (std::size_t i = first; i < last; ++i) {
            const SampleWindow &w = windows[i];
            results[i] = sim.runWindow(
                trace.subspan(w.begin, w.count), state);
            if (i + 1 < last) {
                const std::uint64_t gap_begin = w.begin + w.count;
                state.warm(trace.subspan(
                    gap_begin, windows[i + 1].begin - gap_begin));
            }
        }
        if (lastCovers && c == chunks - 1) {
            const SampleWindow &w = windows.back();
            const std::uint64_t end = w.begin + w.count;
            if (end < trace.size())
                state.warm(
                    trace.subspan(end, trace.size() - end));
            harvest(state);
        }
    };
    // The tasks that do not wait for the pass: bounded-warmup
    // chunks from cold, then the dedicated coverage pass (one pure
    // functional walk of the whole trace) when one is needed.
    const auto runCold = [&](std::size_t c) {
        MachineState state(machine);
        if (c == chunks) {
            state.warm(trace.view());
            harvest(state);
            return;
        }
        const SampleWindow &w = windows[c * chunk];
        state.warm(
            trace.subspan(w.warmupBegin, w.begin - w.warmupBegin));
        measureChunk(c, state);
    };
    const std::size_t coldEnd =
        chunks == 0 || lastCovers ? chunks : chunks + 1;
    std::vector<std::uint64_t> stops(headChunks);
    for (std::size_t c = 0; c < headChunks; ++c)
        stops[c] = windows[c * chunk].begin;

    std::uint64_t passInsts = 0;
    if (config.jobs <= 1 || coldEnd <= 1) {
        // Serial path doubles as the nested-pool escape hatch: a
        // sweep point already running inside a ThreadPool task must
        // not wait() on a pool from within it.
        passInsts = warmCheckpoints(
            trace, machine, stops,
            [&](std::size_t c, MachineState state) {
                measureChunk(c, state);
            });
        for (std::size_t c = headChunks; c < coldEnd; ++c)
            runCold(c);
    } else {
        // The calling thread runs the pass and hands each chunk to
        // the pool as soon as its checkpoint exists; no task waits
        // on another, and one wait() drains everything.
        core::ThreadPool pool(config.jobs);
        for (std::size_t c = headChunks; c < coldEnd; ++c)
            pool.submit([&runCold, c] { runCold(c); });
        passInsts = warmCheckpoints(
            trace, machine, stops,
            [&](std::size_t c, MachineState state) {
                pool.submit(
                    [&measureChunk, c,
                     state = std::move(state)]() mutable {
                        measureChunk(c, state);
                    });
            });
        pool.wait();
    }

    SampledStats out;
    out.windows = windows.size();
    out.traceInstructions = trace.size();
    out.dl1Accesses = dl1_accesses;
    out.dl1Misses = dl1_misses;
    out.l2Accesses = l2_accesses;
    out.l2Misses = l2_misses;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SampleWindow &w = windows[i];
        out.measured.accumulate(results[i]);
        out.measuredInstructions += w.count;
        // Fixed accumulation order keeps the double deterministic.
        out.estimatedCycles +=
            static_cast<double>(results[i].cycles)
            * (static_cast<double>(w.represents)
               / static_cast<double>(w.count));
    }
    // Functionally-warmed instructions: the checkpoint pass, each
    // bounded chunk's warmup, every chunk's gaps, plus the tail or
    // the dedicated coverage pass.
    out.warmupInstructions = passInsts;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SampleWindow &w = windows[i];
        if (i % chunk != 0)
            out.warmupInstructions += w.begin
                - (windows[i - 1].begin + windows[i - 1].count);
        else if (i / chunk >= headChunks)
            out.warmupInstructions += w.begin - w.warmupBegin;
    }
    if (chunks > 0) {
        const SampleWindow &w = windows.back();
        out.warmupInstructions += lastCovers
            ? trace.size() - (w.begin + w.count)
            : trace.size();
    }
    return out;
}

} // namespace bioarch::sim
