/**
 * @file
 * Traced blastn word finder: align::blastnScan itself
 * (align/blastn_impl.hh) under a trace policy that emits the
 * literal code of the paper's Listing 1: rolling 2-bit words built from packed
 * database bytes, a large direct-address word table (4^8 entries =
 * 256 KB of heads), and extensions that unpack bases with the
 * nested if-cascade of READDB_UNPACK_BASE_4..1.
 *
 * Included as an extension beyond the paper's five workloads: it
 * shows the nucleotide variant is even more memory-bound than
 * blastp (the table alone exceeds any L1), with the same
 * ALU-heavy, branchy character.
 */

#ifndef BIOARCH_KERNELS_BLASTN_TRACED_HH
#define BIOARCH_KERNELS_BLASTN_TRACED_HH

#include "align/blastn.hh"
#include "bio/nucleotide.hh"
#include "trace/trace.hh"

namespace bioarch::kernels
{

/** Result of a traced blastn run. */
struct BlastnTracedRun
{
    trace::Trace trace;
    /** Final (gapped) score per database sequence. */
    std::vector<int> scores;
};

/**
 * Trace a blastn database scan.
 *
 * @return trace plus per-sequence scores equal to
 *         align::blastnScan on the same inputs
 */
BlastnTracedRun traceBlastn(const bio::PackedDna &query,
                            const bio::DnaDatabase &db,
                            const align::BlastnParams &params = {});

} // namespace bioarch::kernels

#endif // BIOARCH_KERNELS_BLASTN_TRACED_HH
