/**
 * @file
 * Byte-identity pin of every traced kernel's instruction stream.
 *
 * The traced kernels run the align/ scan bodies with an emitting
 * trace policy, so a refactor of a scan body can move the trace
 * without moving a score. This test hashes each trace with the
 * field order of the benchmark's trace digest (perfbench
 * sim_bench.cc) and pins the values: the five paper workloads at
 * dbSequences 2 and 8 equal the db2/db8 ".trace" lines of
 * perfbench/golden/sim.txt, and blastn is pinned on the input of
 * blastn_traced_test. Static PCs are handed out per emission site
 * in first-use order, so merging, splitting or reordering sites
 * changes a digest even when the instruction mix does not.
 *
 * Regenerating is legitimate only after an intentional model
 * change, never to absorb a refactor's drift:
 *
 *   BIOARCH_REGEN_GOLDEN=1 ./trace_digest_test
 *
 * prints the replacement values to stdout.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bio/random.hh"
#include "core/digest.hh"
#include "kernels/blastn_traced.hh"
#include "kernels/factory.hh"

namespace
{

using namespace bioarch;

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

bool
regen()
{
    const char *env = std::getenv("BIOARCH_REGEN_GOLDEN");
    return env != nullptr && env[0] == '1';
}

struct Pin
{
    kernels::Workload workload;
    int dbSequences;
    std::uint64_t digest;
};

// Equal to the db<N>.<workload>.trace lines of
// perfbench/golden/sim.txt.
constexpr Pin kPins[] = {
    {kernels::Workload::Ssearch34, 2, 10409803254839349403ull},
    {kernels::Workload::SwVmx128, 2, 12765688313322895305ull},
    {kernels::Workload::SwVmx256, 2, 16384492474080692451ull},
    {kernels::Workload::Fasta34, 2, 11214030035853019144ull},
    {kernels::Workload::Blast, 2, 13363081103544245983ull},
    {kernels::Workload::Ssearch34, 8, 1964910340820554125ull},
    {kernels::Workload::SwVmx128, 8, 14992972699175760032ull},
    {kernels::Workload::SwVmx256, 8, 1626461877391542849ull},
    {kernels::Workload::Fasta34, 8, 14958897448217464832ull},
    {kernels::Workload::Blast, 8, 9910022291962352141ull},
};

TEST(TraceDigest, PaperWorkloadsMatchBenchmarkGoldens)
{
    for (const int db : {2, 8}) {
        kernels::TraceSpec spec;
        spec.dbSequences = db;
        const kernels::TraceInput input = kernels::makeTraceInput(spec);
        for (const Pin &pin : kPins) {
            if (pin.dbSequences != db)
                continue;
            const std::uint64_t got = traceDigest(
                kernels::traceWorkload(pin.workload, input).trace);
            const std::string name(kernels::workloadName(pin.workload));
            if (regen()) {
                std::printf("db%d %s %lluull\n", db, name.c_str(),
                            static_cast<unsigned long long>(got));
                continue;
            }
            EXPECT_EQ(got, pin.digest) << name << " at db" << db;
        }
    }
}

// Captured from the instrumented blastn kernel as it stood before
// the traced kernels were folded into the align/ scan bodies.
constexpr std::uint64_t kBlastnPin = 11454111975668342973ull;

TEST(TraceDigest, BlastnMatchesPin)
{
    // The input of BlastnTraced.ScoresEqualLibrary.
    bio::Rng rng(0xDA);
    const bio::PackedDna query = bio::makeRandomDna(rng, 400, "Q");
    const bio::DnaDatabase db =
        bio::makeDnaDatabase(6, 200, 700, query, 2, 0xDA);
    const std::uint64_t got =
        traceDigest(kernels::traceBlastn(query, db).trace);
    if (regen()) {
        std::printf("blastn %lluull\n",
                    static_cast<unsigned long long>(got));
        return;
    }
    EXPECT_EQ(got, kBlastnPin);
}

} // namespace
