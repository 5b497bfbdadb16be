/**
 * @file
 * Where the runner's threads run. On a small VM the kernel can keep
 * freshly started threads on their creator's CPU for hundreds of
 * milliseconds, so all workers of an engine pool may share one vCPU
 * for a whole phase, and a run then measures that placement rather
 * than the program. The runner therefore pins its control threads
 * (the main thread, and the load generator, loop dispatcher and
 * reloader it starts, which inherit its mask) to the first allowed
 * CPU, and each worker of a pool it starts to a CPU of its own
 * among the others.
 */

#ifndef PERFBENCH_AFFINITY_HH
#define PERFBENCH_AFFINITY_HH

#include <functional>

namespace perfbench
{

/** Pins the calling (main) thread to the first allowed CPU. Call
 * once, before any other thread starts. */
void pinControlThread();

/** Allowed CPUs left to workers (at least 1). */
unsigned workerCpus();

/** Pins the calling thread to allowed CPU @p k (modulo their count):
 * 0 is the control CPU, the worker CPUs follow. */
void pinSelfToCpu(unsigned k);

/**
 * Runs @p start (constructing an engine, a router, or reloading
 * one), then pins each thread of the process that appeared during
 * it to a worker CPU of its own, in start order. Calls must not
 * overlap.
 */
void startPinned(const std::function<void()> &start);

} // namespace perfbench

#endif // PERFBENCH_AFFINITY_HH
