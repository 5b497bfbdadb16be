/**
 * @file
 * Tests for the traced blastn kernel and the remaining traced
 * lane variants: score equality with the library implementations
 * and the expected memory character.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "align/blastn.hh"
#include "align/smith_waterman.hh"
#include "kernels/blastn_traced.hh"
#include "kernels/sw_vmx_traced.hh"
#include "kernels/workload.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"

namespace
{

using namespace bioarch;

TEST(BlastnTraced, ScoresEqualLibrary)
{
    bio::Rng rng(0xDA);
    const bio::PackedDna query = bio::makeRandomDna(rng, 400, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(6, 200, 700, query, 2, 0xDA);

    const kernels::BlastnTracedRun run =
        kernels::traceBlastn(query, db);
    const align::DnaWordIndex index(query, 8);
    ASSERT_EQ(run.scores.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
        const align::BlastnScores ref =
            align::blastnScan(index, query, db[i], {});
        EXPECT_EQ(run.scores[i], ref.score) << "sequence " << i;
    }
    EXPECT_GT(run.trace.size(), 0u);
}

TEST(BlastnTraced, TouchesTheBigWordTable)
{
    bio::Rng rng(0xDB);
    const bio::PackedDna query = bio::makeRandomDna(rng, 500, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(4, 400, 800, query, 1, 0xDB);
    const kernels::BlastnTracedRun run =
        kernels::traceBlastn(query, db);

    // The scan's table lookups must span far more than 32K of
    // distinct lines (the 4^8-entry heads array).
    std::unordered_set<isa::Addr> lines;
    for (const isa::Inst &inst : run.trace)
        if (inst.isLoad())
            lines.insert(inst.addr / 128);
    EXPECT_GT(lines.size() * 128, 64u * 1024u);
}

TEST(BlastnTraced, MixIsAluHeavyAndBranchy)
{
    bio::Rng rng(0xDC);
    const bio::PackedDna query = bio::makeRandomDna(rng, 400, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(4, 300, 600, query, 1, 0xDC);
    const trace::InstructionMix mix =
        kernels::traceBlastn(query, db).trace.mix();
    EXPECT_GT(mix.fraction(isa::OpClass::IntAlu), 0.40);
    EXPECT_GT(mix.ctrlFraction(), 0.12);
    EXPECT_GT(mix.loadFraction(), 0.10);
    EXPECT_EQ(mix.count(isa::OpClass::VecSimple), 0u);
}

TEST(SwVmxTraced, AblationLaneCountsAlsoScoreExactly)
{
    kernels::TraceSpec spec;
    spec.dbSequences = 4;
    const kernels::TraceInput input = kernels::makeTraceInput(spec);
    const kernels::TracedRun l4 = kernels::traceSwVmx<4>(input);
    const kernels::TracedRun l32 = kernels::traceSwVmx<32>(input);
    ASSERT_EQ(l4.scores.size(), input.db.size());
    ASSERT_EQ(l32.scores.size(), input.db.size());
    for (std::size_t i = 0; i < input.db.size(); ++i) {
        const int ref = align::smithWatermanScore(
            input.query, input.db[i], bio::blosum62(), {}).score;
        EXPECT_EQ(l4.scores[i], ref) << "lanes=4 seq " << i;
        EXPECT_EQ(l32.scores[i], ref) << "lanes=32 seq " << i;
    }
    // More lanes, fewer instructions — but sub-linearly.
    EXPECT_LT(l32.trace.size(), l4.trace.size());
    EXPECT_GT(l32.trace.size(), l4.trace.size() / 8);
}

} // namespace
