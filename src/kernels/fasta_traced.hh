/**
 * @file
 * Traced FASTA34 heuristic search.
 *
 * Runs align::fastaScan itself (align/fasta_impl.hh) under a trace
 * policy that emits the instruction stream of each stage — k-tuple
 * table scan, diagonal run accumulation, matrix rescoring, region
 * chaining, and the banded opt pass. The scan and diagonal stages are short, branchy,
 * table-driven code (the source of FASTA's ~18% control share and
 * poor branch prediction in the paper); the opt stage contributes
 * DP-cell work on the sequences that pass the initn threshold.
 */

#ifndef BIOARCH_KERNELS_FASTA_TRACED_HH
#define BIOARCH_KERNELS_FASTA_TRACED_HH

#include "workload.hh"

namespace bioarch::kernels
{

/**
 * Trace a full FASTA database search.
 *
 * @return trace plus per-sequence scores equal to
 *         max(opt, initn) of align::fastaScan on the same inputs
 */
TracedRun traceFasta(const TraceInput &input);

} // namespace bioarch::kernels

#endif // BIOARCH_KERNELS_FASTA_TRACED_HH
