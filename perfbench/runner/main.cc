/**
 * @file
 * The benchmark runner:
 *
 *   perfbench_runner --workload <scan_mix|report_reload|
 *                    sim_characterize> --seed N --seconds S
 *                    --trace 0|1 [knobs]
 *
 * perfbench/run.py builds it and passes the workload knobs from
 * perfbench/config.json. Prints a detail line (host block, phase
 * accounting, failed checks) and, last, the one-line result object.
 */

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "align/sw_striped_native.hh"
#include "affinity.hh"
#include "bench.hh"

namespace perfbench
{

void
finishTrace(const Options &opt, const SpanRecorder &spans,
            double traced_us, double untraced_us, Report &report)
{
    // Layer spans are the children of a traced request or point;
    // the roots' own self time is the replay's glue.
    double layer_us = 0.0;
    const std::vector<double> self = spans.selfUs();
    double all_self_us = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        all_self_us += self[i];
        if (spans.spans()[i].parent >= 0)
            layer_us += self[i];
    }
    const double coverage = traced_us <= 0.0 ? 0.0 : layer_us / traced_us;
    if (std::abs(all_self_us - spans.rootUs())
        > 1e-6 * std::max(1.0, spans.rootUs()))
        report.fail("span self times do not sum to the root spans");
    if (coverage < 1.0 - kCoverageBound || coverage > 1.0 + 1e-9)
        report.fail("layer self times cover "
                    + jsonNumber(100.0 * coverage)
                    + "% of the traced wall time");
    if (!opt.spansOut.empty() && !spans.writeChromeJson(opt.spansOut))
        report.fail("cannot write " + opt.spansOut);
    report.detail("trace",
                  "{\"file\": " + jsonString(opt.spansOut)
                      + ", \"spans\": "
                      + std::to_string(spans.spans().size())
                      + ", \"traced_ms\": "
                      + jsonNumber(traced_us / 1000.0)
                      + ", \"untraced_ms\": "
                      + jsonNumber(untraced_us / 1000.0)
                      + ", \"coverage_bound\": "
                      + jsonNumber(kCoverageBound) + "}");
    report.metric("trace.overhead_pct",
                  untraced_us <= 0.0
                      ? 0.0
                      : 100.0 * (traced_us - untraced_us) / untraced_us,
                  "%");
    report.metric("trace.self_coverage", coverage, "frac");
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_runner: " << why << "\n"
              << "usage: perfbench_runner --workload W --seed N "
                 "--seconds S --trace 0|1 [knobs]\n";
    std::exit(2);
}

double
number(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    usage("bad value for " + flag + ": " + text);
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned nproc = onlineCpus();
    pinControlThread();
    Options opt;
    // One vCPU is left to the load generator and the loop's
    // dispatcher, so they do not compete with the pool they time.
    opt.jobs = std::min(workerCpus(), 4u);
    std::string commit = "unknown";
    std::string source_digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-golden") {
            opt.writeGolden = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        const auto count = [&] {
            const double n = number(flag, v);
            if (n < 0 || n != static_cast<long long>(n))
                usage(flag + " wants a whole number");
            return static_cast<long long>(n);
        };
        if (flag == "--workload")
            opt.workload = v;
        else if (flag == "--seed")
            opt.seed = static_cast<std::uint64_t>(count());
        else if (flag == "--seconds")
            opt.seconds = number(flag, v);
        else if (flag == "--trace")
            opt.trace = count() != 0;
        else if (flag == "--setup-reps")
            opt.setupReps = static_cast<int>(count());
        else if (flag == "--mix-db-seqs")
            opt.mixDbSeqs = static_cast<int>(count());
        else if (flag == "--zipf-db-seqs")
            opt.zipfDbSeqs = static_cast<int>(count());
        else if (flag == "--reload-every")
            opt.reloadEvery = static_cast<int>(count());
        else if (flag == "--rate")
            opt.rate = number(flag, v);
        else if (flag == "--sim-db-seqs")
            opt.simDbSeqs = static_cast<int>(count());
        else if (flag == "--golden")
            opt.golden = v;
        else if (flag == "--spans-out")
            opt.spansOut = v;
        else if (flag == "--commit")
            commit = v;
        else if (flag == "--source-digest")
            source_digest = v;
        else
            usage("unknown flag " + flag);
    }
    const bool serve_workload =
        opt.workload == "scan_mix" || opt.workload == "report_reload";
    if (!serve_workload && opt.workload != "sim_characterize")
        usage("unknown workload '" + opt.workload + "'");
    if (opt.seconds <= 0.0 || opt.setupReps < 1
        || (serve_workload && opt.rate <= 0.0)
        || (opt.workload == "scan_mix" && opt.mixDbSeqs < 1)
        || (opt.workload == "report_reload"
            && (opt.zipfDbSeqs < 1 || opt.reloadEvery < 8
                || opt.reloadEvery % 8 != 0))
        || (opt.workload == "sim_characterize" && opt.simDbSeqs < 1)
        || opt.golden.empty())
        usage("invalid knob values");

    const bioarch::align::SimdBackend backend =
        bioarch::align::bestNativeBackend();
    if (backend == bioarch::align::SimdBackend::Model) {
        std::cerr << "perfbench_runner: no native scan backend\n";
        return 1;
    }
    const std::string host =
        "{\"nproc\": " + std::to_string(nproc)
        + ", \"hardware_concurrency\": "
        + std::to_string(std::thread::hardware_concurrency())
        + ", \"jobs\": " + std::to_string(opt.jobs)
        + ", \"simd_backend\": "
        + jsonString(std::string(bioarch::align::backendName(backend)))
        + ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE)
        + ", \"compiler\": " + jsonString(PERFBENCH_COMPILER)
        + ", \"commit\": " + jsonString(commit)
        + ", \"source_digest\": " + jsonString(source_digest)
        + ", \"workload\": " + jsonString(opt.workload)
        + ", \"seed\": " + std::to_string(opt.seed)
        + ", \"seconds\": " + jsonNumber(opt.seconds)
        + ", \"trace\": " + (opt.trace ? "1" : "0") + "}";

    Report report;
    if (serve_workload)
        runServeWorkload(opt, report);
    else
        runSimWorkload(opt, report);

    if (!opt.trace) {
        const double attempted =
            static_cast<double>(std::max<std::uint64_t>(1, report.attempted()));
        report.metric("ok_frac",
                      1.0 - static_cast<double>(report.failed()) / attempted,
                      "frac");
    }
    report.print(host);
    return 0;
}
