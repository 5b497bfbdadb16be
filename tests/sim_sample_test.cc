/**
 * @file
 * Sampled-simulation tests (src/sim/sample.{hh,cc}).
 *
 * Three contracts:
 *  - accuracy: sampled estimates stay inside the acceptance error
 *    bounds (IPC within 2%, DL1/L2 miss rates within 5%, trauma
 *    shares within 5 points) against golden full runs, for every
 *    workload x memory point of a reduced config grid;
 *  - determinism: the merged SampledStats is bit-for-bit identical
 *    across jobs {1, 2, 8} (fingerprint() and full equality);
 *  - checkpointing: MachineState snapshot/restore round-trips —
 *    a window simulated from a restored state reproduces the
 *    original run exactly, counter for counter; and the sampler's
 *    one-pass checkpoints equal cold per-chunk prefix warming, at
 *    a functional cost bounded by the trace, not chunks x trace.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/suite.hh"
#include "sim/sample.hh"

namespace
{

using namespace bioarch;

/** Same reduced working set as sim_golden_test: dbSequences=3
 * keeps 10 sampled-vs-full pairs fast while exercising every
 * kernel's hit and miss paths. */
core::WorkloadSuite &
sampleSuite()
{
    static core::WorkloadSuite s([] {
        kernels::TraceSpec spec;
        spec.dbSequences = 3;
        return spec;
    }());
    return s;
}

/** Fixed geometry for the plan/validate tests. */
sim::SampleConfig
testSample()
{
    sim::SampleConfig cfg;
    cfg.windowInsts = 10'000;
    cfg.periodInsts = 50'000;
    cfg.warmupInsts = 20'000;
    cfg.jobs = 1;
    return cfg;
}

/** Accuracy geometry scaled per trace (232k-3M instructions):
 * 10k-instruction windows, period chosen so every trace gets ~50
 * windows — small traces are measured nearly wall to wall (their
 * full runs are cheap anyway), long traces genuinely sample. */
sim::SampleConfig
accuracySample(const trace::Trace &tr)
{
    sim::SampleConfig cfg;
    cfg.windowInsts = 10'000;
    cfg.periodInsts =
        std::max<std::uint64_t>(cfg.windowInsts,
                                (tr.size() + 49) / 50);
    cfg.jobs = 1;
    return cfg;
}

sim::SimConfig
testMachine(const sim::MemoryConfig &memory)
{
    sim::SimConfig cfg;
    cfg.core = sim::core8Way();
    cfg.memory = memory;
    return cfg;
}

/** accuracySample split into full-prefix chunks of @p chunkWindows
 * windows (the multi-core plan shape of bench_sim_speed). */
sim::SampleConfig
fullPrefixSample(const trace::Trace &tr, std::uint64_t chunkWindows)
{
    sim::SampleConfig cfg = accuracySample(tr);
    cfg.chunkWindows = chunkWindows;
    cfg.warmupInsts = std::uint64_t{1} << 60;
    return cfg;
}

/** First-window begin of every chunk of @p cfg's plan. */
std::vector<std::uint64_t>
chunkStarts(const std::vector<sim::SampleWindow> &windows,
            const sim::SampleConfig &cfg)
{
    std::vector<std::uint64_t> starts;
    for (std::size_t i = 0; i < windows.size(); i += cfg.chunkWindows)
        starts.push_back(windows[i].begin);
    return starts;
}

TEST(SamplePlan, EmptyTraceYieldsNoWindows)
{
    EXPECT_TRUE(sim::planWindows(0, testSample()).empty());
}

TEST(SamplePlan, ShortTraceYieldsOneClampedWindow)
{
    const auto windows = sim::planWindows(5'000, testSample());
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].warmupBegin, 0u);
    EXPECT_EQ(windows[0].begin, 0u);
    EXPECT_EQ(windows[0].count, 5'000u);
    EXPECT_EQ(windows[0].represents, 5'000u);
}

TEST(SamplePlan, RepresentsPartitionsTheTrace)
{
    const std::uint64_t insts = 1'234'567;
    const auto windows = sim::planWindows(insts, testSample());
    ASSERT_FALSE(windows.empty());
    std::uint64_t represented = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const sim::SampleWindow &w = windows[i];
        EXPECT_LE(w.warmupBegin, w.begin);
        EXPECT_LE(w.begin - w.warmupBegin,
                  testSample().warmupInsts);
        EXPECT_GE(w.count, 1u);
        EXPECT_LE(w.count, testSample().windowInsts);
        EXPECT_LE(w.begin + w.count, insts);
        // The window sits inside its own period (its placement
        // within the period is a deterministic jitter, so strict
        // period-start spacing is NOT guaranteed — or wanted:
        // aligned placement resonates with loopy phase structure).
        const std::uint64_t period_begin = represented;
        EXPECT_GE(w.begin, period_begin);
        EXPECT_LE(w.begin + w.count, period_begin + w.represents);
        represented += w.represents;
    }
    EXPECT_EQ(represented, insts);

    // The same config plans the same windows every time.
    const auto again = sim::planWindows(insts, testSample());
    ASSERT_EQ(again.size(), windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(again[i].begin, windows[i].begin);
        EXPECT_EQ(again[i].count, windows[i].count);
    }
}

TEST(SampleConfigValidate, RejectsNonsense)
{
    sim::SampleConfig cfg = testSample();
    EXPECT_TRUE(cfg.validate().empty());

    cfg.windowInsts = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.periodInsts = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.windowInsts = 1'000;
    cfg.periodInsts = 100;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.chunkWindows = 0;
    EXPECT_FALSE(cfg.validate().empty());

    cfg = testSample();
    cfg.jobs = 0;
    EXPECT_FALSE(cfg.validate().empty());
}

TEST(SampleConfigValidate, SampleTraceThrowsOnRejectedConfig)
{
    sim::SampleConfig bad = testSample();
    bad.windowInsts = 0;
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);
    EXPECT_THROW(
        sim::sampleTrace(tr, testMachine(sim::memoryMe4()), bad),
        std::invalid_argument);
}

TEST(TraceWindows, SubspanViewsAreZeroCopyAndClamped)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);
    ASSERT_GT(tr.size(), 100u);

    const trace::TraceView full = tr.view();
    EXPECT_EQ(full.size(), tr.size());
    EXPECT_EQ(full.baseIndex(), 0u);

    const trace::TraceView mid = tr.subspan(50, 25);
    EXPECT_EQ(mid.size(), 25u);
    EXPECT_EQ(mid.baseIndex(), 50u);
    // Zero-copy: the view aliases the trace's own storage.
    EXPECT_EQ(&mid[0], &tr[50]);

    // Clamping: a window reaching past the end truncates; a window
    // starting past the end is empty.
    EXPECT_EQ(tr.subspan(tr.size() - 10, 100).size(), 10u);
    EXPECT_TRUE(tr.subspan(tr.size() + 5, 1).empty());

    EXPECT_GE(tr.memoryBytes(), tr.size() * sizeof(isa::Inst));
}

/** run(trace) and runWindow(full view, cold state) are the same
 * computation — the window refactor must not fork the two paths. */
TEST(SampleWindows, FullRangeWindowEqualsFullRun)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Fasta34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());

    const sim::SimStats full = core::simulate(tr, cfg);

    sim::MachineState cold(cfg);
    sim::Simulator sim(cfg);
    const sim::SimStats windowed = sim.runWindow(tr.view(), cold);

    EXPECT_EQ(full, windowed);
    EXPECT_EQ(full.fingerprint(), windowed.fingerprint());
}

/**
 * The accuracy pin: for every workload x {Me1, Me4} on the 8-way
 * core, the sampled estimate must sit within the acceptance
 * bounds of its own golden full run.
 */
TEST(SampleAccuracy, ErrorBoundsHoldAcrossWorkloadsAndMemories)
{
    const std::array<sim::MemoryConfig, 2> memories = {
        sim::memoryMe1(), sim::memoryMe4()};
    for (const kernels::Workload w : kernels::allWorkloads) {
        const trace::Trace &tr = sampleSuite().trace(w);
        for (const sim::MemoryConfig &mem : memories) {
            const sim::SimConfig cfg = testMachine(mem);
            const sim::SimStats full = core::simulate(tr, cfg);
            const sim::SampledStats sampled =
                sim::sampleTrace(tr, cfg, accuracySample(tr));
            const sim::SampleError err =
                sim::compareSampled(sampled, full);

            const std::string where =
                std::string(kernels::workloadName(w)) + " / "
                + mem.name;
            EXPECT_LE(err.ipcPct, 2.0) << where;
            EXPECT_LE(err.dl1MissRatePct, 5.0) << where;
            EXPECT_LE(err.l2MissRatePct, 5.0) << where;
            EXPECT_LE(err.traumaSharePts, 5.0) << where;

            // Miss rates come from the functional stream covering
            // the whole trace, so the access counts — a pure
            // function of the instruction mix — match the full
            // run's exactly.
            EXPECT_EQ(sampled.dl1Accesses, full.dl1Accesses)
                << where;

            // Sanity on the bookkeeping, not just the errors.
            EXPECT_EQ(sampled.traceInstructions, tr.size())
                << where;
            EXPECT_GT(sampled.windows, 1u) << where;
            EXPECT_LE(sampled.sampledFraction(), 1.0) << where;
            EXPECT_GT(sampled.estimatedCycles, 0.0) << where;
        }
        // The longest trace must genuinely sample, not replay.
        if (w == kernels::Workload::Ssearch34) {
            const trace::Trace &big = sampleSuite().trace(w);
            const sim::SampledStats s = sim::sampleTrace(
                big, testMachine(sim::memoryMe1()),
                accuracySample(big));
            EXPECT_LT(s.sampledFraction(), 0.25);
        }
    }
}

/** Merged stats must be bit-identical whatever the jobs count —
 * for both parallel shapes: full-prefix-warmup chunks (the last
 * chunk doubles as the functional coverage stream) and
 * bounded-warmup chunks (a dedicated coverage pass rides the
 * pool as one extra task). */
TEST(SampleDeterminism, MergeIsIdenticalAcrossJobCounts)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Ssearch34);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());

    for (const std::uint64_t warmup :
         {std::uint64_t{20'000},
          std::uint64_t{1} << 60 /* full prefix */}) {
        sim::SampleConfig sample = testSample();
        sample.warmupInsts = warmup;
        sample.chunkWindows = 8; // many chunks: real fan-out
        sample.jobs = 1;
        const sim::SampledStats one =
            sim::sampleTrace(tr, cfg, sample);
        sample.jobs = 2;
        const sim::SampledStats two =
            sim::sampleTrace(tr, cfg, sample);
        sample.jobs = 8;
        const sim::SampledStats eight =
            sim::sampleTrace(tr, cfg, sample);

        EXPECT_EQ(one, two);
        EXPECT_EQ(one, eight);
        EXPECT_EQ(one.fingerprint(), two.fingerprint());
        EXPECT_EQ(one.fingerprint(), eight.fingerprint());
    }
}

/**
 * Snapshot/restore round-trip: a window simulated from a restored
 * snapshot reproduces the original window bit for bit, and the
 * machine states it leaves behind digest-match.
 */
TEST(SampleCheckpoint, SnapshotRestoreRoundTripsBitForBit)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::SwVmx128);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    ASSERT_GT(tr.size(), 60'000u);

    // Train a state, snapshot it at the measurement boundary.
    sim::MachineState state(cfg);
    state.warm(tr.subspan(0, 40'000));
    const sim::MachineState snap = state.snapshot();
    EXPECT_EQ(state.stateDigest(), snap.stateDigest());

    // Measure a window from the live state...
    sim::Simulator sim(cfg);
    const trace::TraceView window = tr.subspan(40'000, 10'000);
    const sim::SimStats first = sim.runWindow(window, state);
    // ...the run advanced the state past its snapshot...
    EXPECT_NE(state.stateDigest(), snap.stateDigest());

    // ...and restoring + re-running reproduces everything.
    state.restore(snap);
    EXPECT_EQ(state.stateDigest(), snap.stateDigest());
    const sim::SimStats second = sim.runWindow(window, state);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

/** Continuation: windows simulated back to back on one state are
 * the same whether or not a snapshot/restore sits between them. */
TEST(SampleCheckpoint, ContinuationIsUnaffectedBySnapshotCycle)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::SwVmx256);
    const sim::SimConfig cfg = testMachine(sim::memoryMe4());
    ASSERT_GT(tr.size(), 30'000u);

    const trace::TraceView first = tr.subspan(0, 10'000);
    const trace::TraceView second = tr.subspan(10'000, 10'000);

    sim::Simulator sim(cfg);
    sim::MachineState direct(cfg);
    const sim::SimStats a1 = sim.runWindow(first, direct);
    const sim::SimStats a2 = sim.runWindow(second, direct);

    sim::MachineState cycled(cfg);
    const sim::SimStats b1 = sim.runWindow(first, cycled);
    sim::MachineState mid = cycled.snapshot();
    cycled.restore(mid);
    const sim::SimStats b2 = sim.runWindow(second, cycled);

    EXPECT_EQ(a1, b1);
    EXPECT_EQ(a2, b2);
    EXPECT_EQ(direct.stateDigest(), cycled.stateDigest());
}

/**
 * The sampler's checkpoint pass against the plain reference it
 * replaces: at every chunk start of a full-prefix plan, the pass's
 * state digest-matches a cold state given one warm() over [0,
 * begin). warm() carries the last fetched IL1 line across calls,
 * so a stream broken mid-line must not fetch that line again;
 * FASTA34 and BLAST spend most of their instructions in runs on a
 * single line, so their chunk starts land mid-line and pin that
 * the pass's split calls leave the instruction side unperturbed.
 */
TEST(SampleCheckpoint, PassStatesEqualColdPrefixWarm)
{
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    for (const kernels::Workload w :
         {kernels::Workload::Fasta34, kernels::Workload::Blast,
          kernels::Workload::SwVmx128}) {
        const trace::Trace &tr = sampleSuite().trace(w);
        const sim::SampleConfig sample = fullPrefixSample(tr, 8);
        const std::vector<std::uint64_t> starts = chunkStarts(
            sim::planWindows(tr.size(), sample), sample);
        ASSERT_GT(starts.size(), 2u);
        const auto line = [&](std::uint64_t i) {
            return tr[i].byteAddress()
                / static_cast<unsigned>(cfg.memory.il1.lineBytes);
        };
        const bool midLine = std::any_of(
            starts.begin() + 1, starts.end(), [&](std::uint64_t b) {
                return line(b - 1) == line(b);
            });
        EXPECT_TRUE(midLine || w == kernels::Workload::SwVmx128)
            << kernels::workloadName(w);

        std::vector<std::size_t> seen;
        const std::uint64_t warmed = sim::warmCheckpoints(
            tr, cfg, starts,
            [&](std::size_t k, sim::MachineState state) {
                sim::MachineState cold(cfg);
                cold.warm(tr.subspan(0, starts[k]));
                EXPECT_EQ(state.stateDigest(), cold.stateDigest())
                    << kernels::workloadName(w) << " chunk " << k;
                seen.push_back(k);
            });
        EXPECT_EQ(warmed, starts.back());
        ASSERT_EQ(seen.size(), starts.size());
        for (std::size_t k = 0; k < seen.size(); ++k)
            EXPECT_EQ(seen[k], k);
    }
}

/**
 * Every window measured from the pass's checkpoints equals the same
 * window measured after cold prefix warming (planWindows + warm +
 * runWindow, chunk by chunk), and sampleTrace's merge of them
 * equals the reference's at any jobs count.
 */
TEST(SampleCheckpoint, WindowsMatchColdPrefixReference)
{
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    sim::SampleConfig sample = fullPrefixSample(tr, 8);
    const std::vector<sim::SampleWindow> windows =
        sim::planWindows(tr.size(), sample);
    const std::vector<std::uint64_t> starts =
        chunkStarts(windows, sample);
    const std::size_t chunk = sample.chunkWindows;

    // Windows of chunk @p c measured from @p state, warm up to the
    // chunk's first window.
    sim::Simulator sim(cfg);
    const auto measure = [&](std::size_t c, sim::MachineState &state,
                             std::vector<sim::SimStats> &out) {
        const std::size_t last =
            std::min((c + 1) * chunk, windows.size());
        for (std::size_t i = c * chunk; i < last; ++i) {
            const sim::SampleWindow &win = windows[i];
            out[i] = sim.runWindow(tr.subspan(win.begin, win.count),
                                   state);
            if (i + 1 < last) {
                const std::uint64_t gap = win.begin + win.count;
                state.warm(
                    tr.subspan(gap, windows[i + 1].begin - gap));
            }
        }
    };
    std::vector<sim::SimStats> reference(windows.size());
    for (std::size_t c = 0; c < starts.size(); ++c) {
        sim::MachineState state(cfg);
        state.warm(tr.subspan(0, starts[c]));
        measure(c, state, reference);
    }
    std::vector<sim::SimStats> resumed(windows.size());
    sim::warmCheckpoints(tr, cfg, starts,
                         [&](std::size_t c, sim::MachineState state) {
                             measure(c, state, resumed);
                         });
    for (std::size_t i = 0; i < windows.size(); ++i)
        EXPECT_EQ(resumed[i], reference[i]) << "window " << i;

    sim::SimStats merged;
    double cycles = 0.0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        merged.accumulate(reference[i]);
        cycles += static_cast<double>(reference[i].cycles)
            * (static_cast<double>(windows[i].represents)
               / static_cast<double>(windows[i].count));
    }
    for (const unsigned jobs : {1u, 4u}) {
        sample.jobs = jobs;
        const sim::SampledStats sampled =
            sim::sampleTrace(tr, cfg, sample);
        EXPECT_EQ(sampled.measured, merged) << jobs << " jobs";
        EXPECT_EQ(sampled.estimatedCycles, cycles) << jobs << " jobs";
    }
}

/**
 * The work bound: a full-prefix plan warms about one trace plus its
 * gaps whatever its chunk count. Re-warming every chunk's prefix
 * from cold costs ~chunks/2 traces (4x at 8-window chunks, 25x at
 * 1-window chunks) and fails this count on any host.
 */
TEST(SampleCheckpoint, FullPrefixWarmingIsBoundedByTheTrace)
{
    const sim::SimConfig cfg = testMachine(sim::memoryMe4());
    for (const kernels::Workload w : kernels::allWorkloads) {
        const trace::Trace &tr = sampleSuite().trace(w);
        for (const std::uint64_t chunkWindows : {1u, 8u}) {
            const sim::SampledStats s = sim::sampleTrace(
                tr, cfg, fullPrefixSample(tr, chunkWindows));
            EXPECT_LE(s.warmupInstructions, 2 * tr.size())
                << kernels::workloadName(w) << " chunkWindows "
                << chunkWindows;
            EXPECT_GE(s.warmupInstructions
                          + s.measuredInstructions,
                      tr.size())
                << kernels::workloadName(w);
        }
    }
}

/** The digest must see every component of the machine state. */
TEST(SampleCheckpoint, StateDigestSeesEveryComponent)
{
    const sim::SimConfig cfg = testMachine(sim::memoryMe1());
    const trace::Trace &tr =
        sampleSuite().trace(kernels::Workload::Blast);

    sim::MachineState cold(cfg);
    sim::MachineState warmed(cfg);
    EXPECT_EQ(cold.stateDigest(), warmed.stateDigest());
    warmed.warm(tr.subspan(0, 5'000));
    EXPECT_NE(cold.stateDigest(), warmed.stateDigest());

    // A different predictor kind changes the digest even cold.
    sim::SimConfig other = cfg;
    other.bpred.kind = sim::PredictorKind::Bimodal;
    sim::MachineState bimodal(other);
    EXPECT_NE(cold.stateDigest(), bimodal.stateDigest());
}

} // namespace
