/**
 * @file
 * One-call trace generation for any of the paper's five workloads.
 */

#ifndef BIOARCH_KERNELS_FACTORY_HH
#define BIOARCH_KERNELS_FACTORY_HH

#include "workload.hh"

namespace bioarch::kernels
{

/**
 * Run the traced kernel of @p workload on the working set @p input.
 */
TracedRun traceWorkload(Workload workload, const TraceInput &input);

/**
 * Convenience: build the working set from @p spec and trace
 * @p workload on it.
 */
TracedRun traceWorkload(Workload workload, const TraceSpec &spec = {});

} // namespace bioarch::kernels

#endif // BIOARCH_KERNELS_FACTORY_HH
