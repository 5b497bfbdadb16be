/**
 * @file
 * Run options and the entry points of the three workloads. Every
 * workload reports every end-to-end metric (a run's result carries
 * one fixed metric set), and in a traced run every per-layer
 * metric; a layer a workload does not exercise reports zero work.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/workload.hh"
#include "report.hh"
#include "spans.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Measured time of the run, split across its phases. */
    double seconds = 0.0;
    bool trace = false;
    /** Engine pool workers: one per worker CPU (see affinity.hh). */
    unsigned jobs = 1;

    // Workload knobs, all passed by run.py from config.json.
    /** Set-up repetitions; setup_s is their median. */
    int setupReps = 0;
    int mixDbSeqs = 0;
    int zipfDbSeqs = 0;
    int reloadEvery = 0;
    /** Open-loop Poisson arrival rate (requests/s). */
    double rate = 0.0;
    int simDbSeqs = 0;

    std::string golden;
    bool writeGolden = false;
    /** Chrome trace-event file of the traced run. */
    std::string spansOut;
};

/** Largest share of the traced wall time the layer spans may leave
 * unexplained. */
constexpr double kCoverageBound = 0.05;

void runServeWorkload(const Options &opt, Report &report);
/** The serve per-layer metrics of a run that serves nothing. */
void reportIdleServeLayers(Report &report);
void runSimWorkload(const Options &opt, Report &report);

/**
 * Characterizes @p kinds traced over the working set @p spec on the
 * 8-way core with Me1 and Me4: every round simulates each point in
 * full and once through the sampler, in a seeded order. Trace
 * generation runs in the constructor, once per set-up repetition,
 * timed into @p setup_ms. finish() reports the three sim end-to-end
 * metrics (or the sim per-layer metrics in a traced run) and, when
 * the characterization @p is_workload (sim_characterize, not a
 * probe beside serving), qps and latency with one request per
 * kind: that kind on both memories, both arms.
 */
class Characterizer
{
  public:
    Characterizer(const Options &opt,
                  const bioarch::kernels::TraceSpec &spec,
                  std::vector<bioarch::kernels::Workload> kinds,
                  bool is_workload,
                  std::vector<double> &setup_ms, Report &report,
                  SpanRecorder *spans);
    ~Characterizer();
    Characterizer(const Characterizer &) = delete;
    Characterizer &operator=(const Characterizer &) = delete;

    /** Whole rounds until @p budget_s seconds passed (at least 1). */
    void runFor(double budget_s);
    void runRounds(int rounds);
    void finish();

  private:
    struct State;
    std::unique_ptr<State> _s;
};

/** Lower-case metric suffix of a request kind. */
std::string kindKey(bioarch::kernels::Workload w);

/** Write the traced run's spans and check that the named layers
 * account for @p traced_us of wall time within the bound. */
void finishTrace(const Options &opt, const SpanRecorder &spans,
                 double traced_us, double untraced_us,
                 Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
