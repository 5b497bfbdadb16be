/**
 * @file
 * Traced SSEARCH34 scalar Smith-Waterman kernel.
 *
 * Runs the dropgsw-style inner loop of align::ssearchScan itself
 * (align/ssearch_impl.hh) on the real data, under a trace policy
 * that emits the corresponding PowerPC-like instruction stream: three loads, two stores, ~6 integer ALU ops
 * and 3-5 data-dependent conditional branches per DP cell — the
 * profile that makes SSEARCH 44% ALU / 25% control in the paper's
 * Fig. 1, and branch-bound in its Fig. 2/9.
 */

#ifndef BIOARCH_KERNELS_SSEARCH_TRACED_HH
#define BIOARCH_KERNELS_SSEARCH_TRACED_HH

#include "workload.hh"

namespace bioarch::kernels
{

/**
 * Trace a full SSEARCH database scan.
 *
 * @param input query + database working set
 * @return trace plus the per-sequence best scores (equal to
 *         align::ssearchScan on the same inputs)
 */
TracedRun traceSsearch(const TraceInput &input);

} // namespace bioarch::kernels

#endif // BIOARCH_KERNELS_SSEARCH_TRACED_HH
