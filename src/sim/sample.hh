/**
 * @file
 * Sampled simulation: SimPoint/SMARTS-style windowed sampling over
 * the detailed pipeline model.
 *
 * Full-trace detailed simulation costs O(every instruction); the
 * paper's methodology tops out around 14 Minst/s, which makes
 * full-database-scale traces (and characterizing the serving
 * engine's own instruction stream) intractable. The sampler splits
 * a trace into measurement windows spaced periodInsts apart: each
 * window gets functional warmup (caches, TLBs, BTB and direction
 * predictor trained over the warmupInsts preceding instructions —
 * structural updates only, no timing) and then detailed simulation
 * of windowInsts instructions from that warm MachineState, with
 * the pipeline starting empty and draining at the window's end.
 *
 * Windows are grouped into fixed-size *chunks* (SampleConfig::
 * chunkWindows): a chunk's windows run serially on one worker with
 * the machine state functionally warmed through the gaps between
 * them (SMARTS-style continuous warming — long-period state like a
 * big predictor table keeps its history instead of retraining from
 * a bounded prefix at every window). Chunks are independent, so
 * they fan out across a work-stealing ThreadPool and merge in
 * window order — the chunk partition is fixed by the config, never
 * the jobs count, so the merged SampledStats is bit-for-bit
 * identical for any jobs value, the same contract the design-space
 * sweep enforces.
 *
 * Chunks whose warmup reaches the trace's head (all chunks of a
 * full-prefix plan) share one functional pass on the calling
 * thread: it walks the trace once and checkpoints the machine
 * state at each such chunk's first window (warmCheckpoints), and
 * each chunk starts from its checkpoint the moment it exists. A
 * full-prefix plan therefore costs one functional pass plus its
 * chunks' gaps, whatever the chunk count.
 *
 * Timing (cycles, IPC, stall traumas) is extrapolated per window —
 * each window stands for its surrounding period. Cache miss
 * *rates* are not extrapolated at all: the sampler always streams
 * the complete trace through the functional model (a single chunk
 * walks prefix + gaps + tail as it goes, as does the last chunk of
 * a full-prefix-warmup run; a bounded-warmup multi-chunk run adds
 * a dedicated coverage pass as one more parallel task), and the
 * whole-trace dl1/l2 counters are harvested from that stream.
 * These traces miss mostly on compulsory fills — a few hundred
 * events in millions of accesses — so any windowed estimate of a
 * miss rate is statistically hopeless, while the functional stream
 * reproduces the detailed loop's access sequence and makes the
 * rates exact. Error bounds are pinned against golden full runs in
 * tests/sim_sample_test.cc.
 */

#ifndef BIOARCH_SIM_SAMPLE_HH
#define BIOARCH_SIM_SAMPLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pipeline.hh"

namespace bioarch::sim
{

/** Sampling parameters. Every count is in instructions. */
struct SampleConfig
{
    /** Detailed-measured instructions per window. */
    std::uint64_t windowInsts = 20'000;
    /** Distance between window starts; each window extrapolates to
     * the period it sits in. Must be >= windowInsts. */
    std::uint64_t periodInsts = 250'000;
    /** Functional-warmup instructions ahead of each *chunk*'s
     * first window (clamped to the trace's start). Only bounds the
     * warmup of chunks after the first in a multi-chunk run; the
     * lone chunk of a default single-chunk run warms its complete
     * prefix instead. Chunks whose warmup reaches the trace's head
     * (all of them when this exceeds the trace) start from
     * checkpoints of one shared functional pass, so full-prefix
     * warmup costs one walk of the trace, not one per chunk. */
    std::uint64_t warmupInsts = 50'000;
    /**
     * Windows per chunk. A chunk is the parallel unit: its windows
     * run serially on one worker with the machine state warmed
     * *continuously* through the gaps between them (SMARTS-style
     * functional warming), so only the chunk's first window pays
     * the bounded-warmup state error. The chunk partition is fixed
     * by this config — never by the jobs count — which is what
     * keeps the merged result bit-identical across jobs.
     *
     * The default is large enough that any realistic trace runs as
     * one chunk: warmupInsts is then moot (the lone chunk warms the
     * whole prefix while streaming the trace) and the run is exact
     * apart from window-placement error. Set it smaller to fan
     * chunks across jobs on a multi-core host.
     */
    std::uint64_t chunkWindows = 1'000'000;
    /** Worker threads for the chunk fan-out. */
    unsigned jobs = 1;

    /**
     * Empty string when the configuration is usable; otherwise a
     * one-line description of the first problem (zero counts,
     * window larger than period) for CLI-grade error reporting.
     */
    std::string validate() const;
};

/** One planned measurement window. */
struct SampleWindow
{
    /** First instruction of the functional-warmup prefix (only
     * consumed when this window opens a chunk; later windows of a
     * chunk inherit continuously warmed state instead). */
    std::uint64_t warmupBegin = 0;
    /** First detailed-measured instruction. */
    std::uint64_t begin = 0;
    /** Detailed-measured instruction count (tail windows clamp). */
    std::uint64_t count = 0;
    /** Instructions this window stands for when extrapolating
     * (its period, clamped to the trace's end). */
    std::uint64_t represents = 0;
};

/** Window layout for a trace of @p traceInsts instructions. */
std::vector<SampleWindow> planWindows(std::uint64_t traceInsts,
                                      const SampleConfig &config);

/** Everything a sampled run reports. */
struct SampledStats
{
    /** Per-window detailed stats summed in window order (cycles /
     * instructions / misses cover only measured windows). */
    SimStats measured;
    std::uint64_t windows = 0;
    /** Length of the full trace the sample stands for. */
    std::uint64_t traceInstructions = 0;
    std::uint64_t measuredInstructions = 0;
    /** Instructions streamed through the functional model only:
     * the checkpoint pass over the head-warmed chunks' prefix,
     * bounded chunk warmups, gaps, tail and coverage pass. About
     * one trace plus the gaps for a full-prefix plan. */
    std::uint64_t warmupInstructions = 0;
    /**
     * Whole-trace cache counters from the functional stream (warm
     * plus detailed windows cover every instruction). Exact, not
     * extrapolated: the functional model reproduces the detailed
     * loop's access sequence.
     */
    std::uint64_t dl1Accesses = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /**
     * Whole-trace cycle estimate: each window's cycles scaled by
     * the instructions it represents (sum_k cycles_k *
     * represents_k / count_k), accumulated in window order so the
     * value is schedule-independent.
     */
    double estimatedCycles = 0.0;

    /** Fraction of the trace that was detailed-simulated. */
    double
    sampledFraction() const
    {
        return traceInstructions == 0
            ? 0.0
            : static_cast<double>(measuredInstructions)
                / static_cast<double>(traceInstructions);
    }

    /** Whole-trace IPC estimate. */
    double
    ipc() const
    {
        return estimatedCycles <= 0.0
            ? 0.0
            : static_cast<double>(traceInstructions)
                / estimatedCycles;
    }

    /** Whole-trace DL1 miss rate (from the functional stream). */
    double
    dl1MissRate() const
    {
        return dl1Accesses == 0
            ? 0.0
            : static_cast<double>(dl1Misses)
                / static_cast<double>(dl1Accesses);
    }

    /** Whole-trace L2 miss rate (from the functional stream). */
    double
    l2MissRate() const
    {
        return l2Accesses == 0
            ? 0.0
            : static_cast<double>(l2Misses)
                / static_cast<double>(l2Accesses);
    }

    /** Share of @p t in the measured stall cycles (0 when none). */
    double traumaShare(Trauma t) const;

    /** FNV-1a digest over every field (the determinism pin: equal
     * digests across jobs counts mean bit-identical results). */
    std::uint64_t fingerprint() const;

    bool operator==(const SampledStats &) const = default;
};

/**
 * Error of a sampled run against the full detailed run of the same
 * trace and configuration (the acceptance gates: IPC within 2%,
 * miss rates within 5%, trauma shares within 5 points).
 */
struct SampleError
{
    /** Relative IPC error, percent. */
    double ipcPct = 0.0;
    /** Relative DL1 miss-rate error, percent (absolute when the
     * full run's rate is ~0). */
    double dl1MissRatePct = 0.0;
    /** Relative L2 miss-rate error, percent (same guard). */
    double l2MissRatePct = 0.0;
    /** Largest absolute trauma-share difference, in percentage
     * points of total stall cycles. */
    double traumaSharePts = 0.0;
};

SampleError compareSampled(const SampledStats &sampled,
                           const SimStats &full);

/**
 * The checkpointed functional pass: one cold MachineState for
 * @p machine walks @p trace once, up to stops.back(), and at each
 * of the ascending instruction indices @p stops hands
 * @p visit(k, state) a state whose stateDigest() equals that of a
 * cold state given one warm() call over [0, stops[k]). Calls come
 * in order on the calling thread. Returns the instructions it
 * streamed through the functional model.
 */
std::uint64_t warmCheckpoints(
    const trace::Trace &trace, const SimConfig &machine,
    const std::vector<std::uint64_t> &stops,
    const std::function<void(std::size_t, MachineState)> &visit);

/**
 * Sample @p trace on @p machine: plan windows, measure them chunk
 * by chunk (chunks fanned across config.jobs workers, windows
 * within a chunk serial with continuously warmed state), merge in
 * window order. Throws std::invalid_argument when
 * config.validate() rejects.
 */
SampledStats sampleTrace(const trace::Trace &trace,
                         const SimConfig &machine,
                         const SampleConfig &config);

} // namespace bioarch::sim

#endif // BIOARCH_SIM_SAMPLE_HH
