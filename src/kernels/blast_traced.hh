/**
 * @file
 * Traced NCBI BLASTP word finder + extension pipeline.
 *
 * Runs align::blastScan itself (align/blast_impl.hh) under a trace
 * policy: the BlastWordFinder-style scan streams
 * database words through the large neighborhood lookup table
 * (~55 KB of CSR heads plus the position lists), updates the
 * per-diagonal two-hit state, and runs ungapped X-drop extensions;
 * the best HSP gets one banded gapped extension. The data-dependent
 * indexing of the lookup table by database content is what makes
 * BLAST's working set exceed a 32 KB L1 in the paper (Fig. 5), and
 * the pointer-chasing + if-cascades (Listing 1) give its 54% ALU /
 * 21% load / 16% control mix.
 */

#ifndef BIOARCH_KERNELS_BLAST_TRACED_HH
#define BIOARCH_KERNELS_BLAST_TRACED_HH

#include "workload.hh"

namespace bioarch::kernels
{

/**
 * Trace a full BLAST database search.
 *
 * @return trace plus per-sequence gapped scores equal to
 *         align::blastScan on the same inputs
 */
TracedRun traceBlast(const TraceInput &input);

} // namespace bioarch::kernels

#endif // BIOARCH_KERNELS_BLAST_TRACED_HH
