/**
 * @file
 * The serve workloads. scan_mix: the five protein applications
 * over the Table II queries, score-only, full scans against one
 * SwissProt-like database through one Engine. report_reload:
 * ssearch34 and blast with alignments reported, Zipf-length epochs
 * with the seed index, served through a one-replica ReplicaRouter
 * with the result cache on and epochs swapped in at fixed request
 * counts.
 *
 * A timed run is a closed loop (one caller replays the stream in
 * engine batches) followed by an open loop (one generator thread,
 * Poisson arrivals into a ServeLoop, each request timed from its
 * scheduled send). Every served response is checked against a
 * jobs=1 Engine on the same epoch, and every returned CIGAR is
 * replayed through cigarScore(). A traced run replays the stream
 * at jobs=1 through the layers' public calls inside spans.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>

#include "affinity.hh"
#include "align/traceback/cigar.hh"
#include "bench.hh"
#include "bio/synthetic.hh"
#include "core/percentile.hh"
#include "index/epoch.hh"
#include "obs/snapshot.hh"
#include "serve/engine.hh"
#include "serve/loop.hh"
#include "serve/router.hh"

namespace perfbench
{

using namespace bioarch;

namespace
{

constexpr std::size_t kTopK = 10;
constexpr std::size_t kStreamLength = 8192;
/** report_reload's prebuilt database epochs, served in turn. */
constexpr int kEpochs = 3;
/** One report_reload request in this many repeats an earlier one. */
constexpr std::size_t kRepeatEvery = 4;
/** Share of the serve time given to the closed loop. */
constexpr double kClosedShare = 0.25;
/** Share of a run given to characterizing the served request kinds
 * on the simulator, and the working set they are traced over. */
constexpr double kSimShare = 0.2;
constexpr int kProbeDbSeqs = 2;
/** A repeat copies a request at least this far back, so the
 * first copy has been served (and cached) before it. */
constexpr std::size_t kRepeatDistance = 16;

/** One stream entry: request kind and index into the query pool. */
struct Item
{
    kernels::Workload kind = kernels::Workload::Ssearch34;
    std::uint32_t query = 0;
};

/** Draws 0..n-1 in shuffled blocks: each value once per n draws. */
class BlockDraw
{
  public:
    BlockDraw(std::size_t n, bio::Rng &rng)
        : _order(n), _rng(&rng), _pos(n)
    {
    }

    std::size_t
    next()
    {
        if (_pos == _order.size()) {
            for (std::size_t i = 0; i < _order.size(); ++i)
                _order[i] = i;
            for (std::size_t i = _order.size(); i > 1; --i)
                std::swap(_order[i - 1], _order[_rng->below(i)]);
            _pos = 0;
        }
        return _order[_pos++];
    }

  private:
    std::vector<std::size_t> _order;
    bio::Rng *_rng;
    std::size_t _pos;
};

/** Everything a serve workload builds before it is timed. */
struct Setup
{
    bool reload = false;
    /** Requests per epoch segment (report_reload). */
    std::uint64_t reloadEvery = 1;
    std::vector<bio::Sequence> queries;
    std::vector<Item> stream;
    std::vector<std::shared_ptr<const index::DbEpoch>> epochs;
    serve::EngineConfig cfg;
    std::unique_ptr<serve::Engine> engine;
    std::unique_ptr<serve::ReplicaRouter> router;
    double indexBuildMs = 0.0;

    serve::BatchServer &
    server()
    {
        return reload ? static_cast<serve::BatchServer &>(*router)
                      : static_cast<serve::BatchServer &>(*engine);
    }

    /** Epoch (index into epochs) the g-th request is served on. */
    std::size_t
    epochOf(std::uint64_t g) const
    {
        return reload ? (g / reloadEvery) % epochs.size() : 0;
    }

    serve::Request
    request(std::uint64_t g) const
    {
        const Item &it = stream[g % stream.size()];
        serve::Request r;
        r.id = g;
        r.kind = it.kind;
        r.query = queries[it.query];
        r.topK = kTopK;
        r.reportAlignments = reload;
        return r;
    }
};

std::unique_ptr<Setup>
buildSetup(const Options &opt)
{
    auto s = std::make_unique<Setup>();
    s->reload = opt.workload == "report_reload";
    s->cfg.jobs = opt.jobs;
    s->cfg.shards = 4;
    s->cfg.batch = 8;
    s->cfg.topK = kTopK;
    s->cfg.backend = align::bestNativeBackend();
    bio::Rng rng(subSeed(opt.seed, 1));

    if (!s->reload) {
        s->queries = bio::makeQuerySet(subSeed(opt.seed, 2));
        bio::DatabaseSpec spec;
        spec.numSequences = opt.mixDbSeqs;
        spec.seed = subSeed(opt.seed, 3);
        s->epochs.push_back(index::makeEpoch(
            bio::makeDatabase(spec, s->queries), false, 1));
        constexpr kernels::Workload kinds[] = {
            kernels::Workload::Ssearch34, kernels::Workload::SwVmx128,
            kernels::Workload::SwVmx256, kernels::Workload::Fasta34,
            kernels::Workload::Blast};
        // Every (kind, query) pair once per block of 55, in seeded
        // order, so the mix a run serves does not vary with the seed.
        BlockDraw pairs(std::size(kinds) * s->queries.size(), rng);
        for (std::size_t i = 0; i < kStreamLength; ++i) {
            const std::size_t p = pairs.next();
            s->stream.push_back(Item{
                kinds[p % std::size(kinds)],
                static_cast<std::uint32_t>(p / std::size(kinds))});
        }
        startPinned([&] {
            s->engine =
                std::make_unique<serve::Engine>(s->epochs[0]->db, s->cfg);
        });
        return s;
    }

    s->cfg.blast.neighborThreshold = 16;
    s->reloadEvery = static_cast<std::uint64_t>(opt.reloadEvery);
    const std::vector<bio::Sequence> bases =
        bio::makeQuerySet(subSeed(opt.seed, 2));
    for (int e = 0; e < kEpochs; ++e) {
        bio::DatabaseSpec spec;
        spec.numSequences = opt.zipfDbSeqs;
        spec.zipfLengths = true;
        spec.seed = subSeed(opt.seed, 10 + static_cast<std::uint64_t>(e));
        auto epoch = std::make_shared<index::DbEpoch>();
        epoch->epoch = static_cast<std::uint64_t>(e) + 1;
        epoch->db = bio::makeDatabase(spec, bases);
        const WallClock::time_point t0 = WallClock::now();
        epoch->index = index::SeedIndex::build(epoch->db);
        s->indexBuildMs += msSince(t0) / kEpochs;
        s->epochs.push_back(std::move(epoch));
    }
    // Fresh queries are mutants of the Table II proteins (so they
    // hit the planted homologs), kinds and bases drawn in shuffled
    // blocks. Past the first kRepeatDistance requests of an epoch
    // segment, one request in every kRepeatEvery repeats an earlier
    // (kind, query) of the same segment.
    //
    // Two BLAST requests to one SSEARCH: hits, then BLAST misses,
    // then SSEARCH misses in latency order, so the median lands in
    // the middle of the BLAST misses, where their latencies are
    // dense, not in the sparse tail where they meet the SSEARCH
    // misses (with an even mix it sat at their 71st percentile and
    // moved by up to 2x from seed to seed). SSEARCH still does most
    // of the work.
    constexpr kernels::Workload kinds[] = {kernels::Workload::Ssearch34,
                                           kernels::Workload::Blast,
                                           kernels::Workload::Blast};
    BlockDraw kind_draw(std::size(kinds), rng);
    BlockDraw base_draw(bases.size(), rng);
    std::size_t repeat_slot = 0;
    for (std::size_t i = 0; i < kStreamLength; ++i) {
        const std::size_t seg_begin = i - i % s->reloadEvery;
        const std::size_t off = i - seg_begin;
        if (off >= kRepeatDistance) {
            const std::size_t slot =
                (off - kRepeatDistance) % kRepeatEvery;
            if (slot == 0)
                repeat_slot = rng.below(kRepeatEvery);
            if (slot == repeat_slot) {
                const std::size_t span = off - kRepeatDistance + 1;
                s->stream.push_back(
                    s->stream[seg_begin + rng.below(span)]);
                continue;
            }
        }
        const bio::Sequence &base = bases[base_draw.next()];
        s->queries.push_back(bio::mutate(
            rng, base, 0.5 + 0.45 * rng.uniform(),
            "Q" + std::to_string(s->queries.size()), base.id()));
        s->stream.push_back(Item{
            kinds[kind_draw.next()],
            static_cast<std::uint32_t>(s->queries.size() - 1)});
    }
    serve::RouterConfig rc;
    rc.replicas = 1;
    rc.engine = s->cfg;
    rc.cache.capacityBytes = std::size_t{64} << 20;
    startPinned([&] {
        s->router =
            std::make_unique<serve::ReplicaRouter>(s->epochs[0], rc);
    });
    return s;
}

/** Engine configuration of epoch @p e (its own seed index). */
serve::EngineConfig
epochConfig(const Setup &s, std::size_t e, unsigned jobs)
{
    serve::EngineConfig c = s.cfg;
    c.jobs = jobs;
    c.metrics = nullptr;
    const index::DbEpoch &ep = *s.epochs[e];
    c.seedIndex = ep.index ? &*ep.index : nullptr;
    return c;
}

/** A served response awaiting its check. */
struct Served
{
    std::uint64_t g = 0;
    /** Epochs the request may have been served on. */
    std::vector<std::size_t> epochs;
    serve::Response response;
};

bool
sameHits(const std::vector<align::SearchHit> &a,
         const std::vector<align::SearchHit> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].dbIndex != b[i].dbIndex || a[i].score != b[i].score
            || a[i].bitScore != b[i].bitScore
            || a[i].evalue != b[i].evalue)
            return false;
    return true;
}

/**
 * Check every served response: its ranked hits equal a jobs=1
 * Engine's on (one of) its epoch(s), and each returned CIGAR
 * replays to its reported score. The reference answers are
 * computed once per distinct (epoch, kind, query), spread over
 * opt.jobs threads that each own their jobs=1 engines. Returns
 * the number of failed responses.
 */
std::uint64_t
checkServed(const Options &opt, const Setup &s,
            const std::vector<Served> &served, Report &report)
{
    std::map<std::tuple<std::size_t, int, std::uint32_t>, std::size_t>
        slot;
    std::vector<std::tuple<std::size_t, int, std::uint32_t>> keys;
    for (const Served &sv : served) {
        const Item &it = s.stream[sv.g % s.stream.size()];
        for (const std::size_t e : sv.epochs) {
            const auto key =
                std::make_tuple(e, static_cast<int>(it.kind), it.query);
            if (slot.emplace(key, keys.size()).second)
                keys.push_back(key);
        }
    }
    std::vector<std::vector<align::SearchHit>> ref(keys.size());
    // A reference that threw stays unset, and its responses fail.
    std::vector<char> ref_ok(keys.size(), 0);
    const unsigned threads = std::max(1u, opt.jobs);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            pinSelfToCpu(t + 1);
            std::vector<std::unique_ptr<serve::Engine>> engines(
                s.epochs.size());
            for (std::size_t k = t; k < keys.size(); k += threads) {
                try {
                    const auto &[e, kind, q] = keys[k];
                    if (!engines[e])
                        engines[e] = std::make_unique<serve::Engine>(
                            s.epochs[e]->db, epochConfig(s, e, 1));
                    serve::Request r;
                    r.kind = static_cast<kernels::Workload>(kind);
                    r.query = s.queries[q];
                    r.topK = kTopK;
                    ref[k] = engines[e]->serve(r).hits;
                    ref_ok[k] = 1;
                } catch (const std::exception &) {
                }
            }
        });
    for (std::thread &t : pool)
        t.join();

    std::uint64_t failed = 0;
    for (const Served &sv : served) {
        const Item &it = s.stream[sv.g % s.stream.size()];
        const serve::Response &resp = sv.response;
        const index::DbEpoch *match = nullptr;
        for (const std::size_t e : sv.epochs) {
            const std::size_t k = slot.at(
                std::make_tuple(e, static_cast<int>(it.kind), it.query));
            if (ref_ok[k] && sameHits(resp.hits, ref[k])) {
                match = s.epochs[e].get();
                break;
            }
        }
        bool ok = match != nullptr;
        if (!ok)
            report.fail("request " + std::to_string(sv.g)
                        + ": ranked hits differ from a jobs=1 Engine");
        if (ok && s.reload) {
            ok = resp.alignments.size() == resp.hits.size();
            for (std::size_t h = 0; ok && h < resp.hits.size(); ++h) {
                const align::CigarAlignment &a = resp.alignments[h];
                try {
                    ok = !a.empty()
                        && align::cigarScore(
                               a, s.queries[it.query],
                               match->db[resp.hits[h].dbIndex],
                               bio::blosum62(), s.cfg.gaps)
                            == a.score;
                } catch (const std::exception &) {
                    ok = false;
                }
            }
            if (!ok)
                report.fail("request " + std::to_string(sv.g)
                            + ": a CIGAR does not replay to its score");
        }
        if (!ok)
            ++failed;
    }
    return failed;
}

/** A loop clock whose epoch the generator can sleep against. */
class RunClock final : public serve::Clock
{
  public:
    double
    nowUs() const override
    {
        return std::chrono::duration<double, std::micro>(
                   WallClock::now() - _epoch)
            .count();
    }
    WallClock::time_point
    at(double us) const
    {
        return _epoch
            + std::chrono::duration_cast<WallClock::duration>(
                std::chrono::duration<double, std::micro>(us));
    }

  private:
    WallClock::time_point _epoch = WallClock::now();
};

struct ClosedResult
{
    std::uint64_t requests = 0;
    double ms = 0.0;
    double busyUs = 0.0; ///< scan + traceback work in the pool
    /** Completion time (ms since start) of each batch. */
    std::vector<std::pair<double, std::size_t>> batches;

    /** Throughput of each of two equal windows of the loop. */
    std::vector<double>
    windowQps() const
    {
        constexpr int windows = 2;
        std::vector<double> counts(windows, 0.0);
        for (const auto &[at, n] : batches)
            counts[std::min(windows - 1,
                            static_cast<int>(at / ms * windows))] +=
                static_cast<double>(n);
        for (double &c : counts)
            c *= 1000.0 * windows / ms;
        return counts;
    }
};

/** One caller replays the stream in engine batches. */
ClosedResult
closedLoop(Setup &s, std::uint64_t &g, double budget_ms,
           std::vector<Served> &served)
{
    ClosedResult out;
    const WallClock::time_point t0 = WallClock::now();
    while (out.requests == 0 || msSince(t0) < budget_ms) {
        if (s.reload && g % s.reloadEvery == 0 && g > 0)
            startPinned(
                [&] { s.router->reload(s.epochs[s.epochOf(g)]); });
        // Batches end at epoch boundaries, so each runs on one epoch.
        const std::uint64_t to_boundary =
            s.reload ? s.reloadEvery - g % s.reloadEvery : s.cfg.batch;
        std::vector<serve::Request> batch;
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(
                                      s.cfg.batch, to_boundary);
             ++i)
            batch.push_back(s.request(g + i));
        std::vector<serve::Response> resp =
            s.server().serveBatch(batch, serve::BatchControl{});
        for (serve::Response &r : resp) {
            out.busyUs += r.scanUs + r.tracebackUs;
            served.push_back(Served{g, {s.epochOf(g)}, std::move(r)});
            ++g;
        }
        out.requests += batch.size();
        out.batches.emplace_back(msSince(t0), batch.size());
    }
    out.ms = msSince(t0);
    return out;
}

struct OpenResult
{
    std::uint64_t sent = 0;
    std::uint64_t notServed = 0;
    std::vector<double> latencyMs;
    std::vector<double> queueWaitMs;
    std::vector<double> lateMs;
    /** Dispatch to completion. */
    std::vector<double> serviceMs;
    /** Latencies by request kind, cache hits apart. */
    std::map<std::string, std::vector<double>> latencyMsBy;
    /** Engine batches the loop dispatched. */
    std::uint64_t batches = 0;
    std::uint64_t reloadFailures = 0;

    void
    append(OpenResult &&o)
    {
        sent += o.sent;
        notServed += o.notServed;
        batches += o.batches;
        reloadFailures += o.reloadFailures;
        for (auto [to, from] :
             {std::pair{&latencyMs, &o.latencyMs},
              std::pair{&queueWaitMs, &o.queueWaitMs},
              std::pair{&lateMs, &o.lateMs},
              std::pair{&serviceMs, &o.serviceMs}})
            to->insert(to->end(), from->begin(), from->end());
        for (auto &[group, ms] : o.latencyMsBy)
            latencyMsBy[group].insert(latencyMsBy[group].end(),
                                      ms.begin(), ms.end());
    }
};

/**
 * Open loop: one generator thread sends @p count Poisson arrivals
 * at opt.rate into a ServeLoop; each request is timed from when it
 * was due to be sent, and the generator's own lateness is kept. A
 * fixed count, rather than a time budget, fixes the percentile the
 * tail is read at.
 */
OpenResult
openLoop(const Options &opt, Setup &s, std::uint64_t &g,
         std::uint64_t count, std::vector<Served> &served)
{
    RunClock clock;
    serve::LoopConfig lc;
    lc.queueCapacity = std::size_t{1} << 20;
    serve::ServeLoop loop(s.server(), lc, &clock);
    loop.start();

    // Reloads run on their own thread, as an operator's would, so
    // their cost shows in serving rather than in the schedule of
    // the generator.
    struct Reload
    {
        std::size_t epoch = 0;
        double beginUs = 0.0;
        double endUs = 0.0;
    };
    std::vector<Reload> reloads;
    std::deque<std::uint64_t> pending;
    bool generating = true;
    std::uint64_t reload_failures = 0;
    std::mutex mutex; // guards the four above
    std::condition_variable wake;
    std::thread reloader([&] {
        std::unique_lock lock(mutex);
        while (true) {
            wake.wait(lock, [&] { return !generating || !pending.empty(); });
            if (pending.empty())
                return;
            const std::size_t epoch = s.epochOf(pending.front());
            pending.pop_front();
            lock.unlock();
            const double begin = clock.nowUs();
            bool ok = true;
            try {
                startPinned([&] { s.router->reload(s.epochs[epoch]); });
            } catch (const std::exception &) {
                ok = false;
            }
            const double end = clock.nowUs();
            lock.lock();
            if (ok)
                reloads.push_back(Reload{epoch, begin, end});
            else
                ++reload_failures;
        }
    });

    std::vector<double> due;
    bio::Rng rng(subSeed(opt.seed, 20 + g));
    const std::uint64_t g0 = g;
    const std::size_t epoch0 = s.epochOf(g0 == 0 ? 0 : g0 - 1);
    const double start = clock.nowUs() + 1000.0;
    double t = start;
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(1, count); ++i) {
        t += -std::log(1.0 - rng.uniform()) * 1e6 / opt.rate;
        serve::Request r = s.request(g);
        std::this_thread::sleep_until(clock.at(t));
        if (s.reload && g % s.reloadEvery == 0 && g > 0) {
            const std::lock_guard lock(mutex);
            pending.push_back(g);
            wake.notify_one();
        }
        due.push_back(t);
        (void)loop.submit(std::move(r));
        ++g;
    }
    {
        const std::lock_guard lock(mutex);
        generating = false;
        wake.notify_one();
    }
    reloader.join();
    loop.drain();

    OpenResult out;
    out.reloadFailures = reload_failures;
    std::vector<double> dispatches;
    const std::vector<serve::LoopResult> results = loop.results();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const serve::LoopResult &lr = results[i];
        ++out.sent;
        out.lateMs.push_back((lr.arrivalUs - due[i]) / 1000.0);
        if (lr.status != serve::LoopStatus::Served) {
            ++out.notServed;
            continue;
        }
        out.latencyMs.push_back((lr.doneUs - due[i]) / 1000.0);
        out.queueWaitMs.push_back(lr.queueWaitUs() / 1000.0);
        out.serviceMs.push_back((lr.doneUs - lr.dispatchUs) / 1000.0);
        out.latencyMsBy[lr.response.fromCache
                            ? "cache_hit"
                            : kindKey(s.stream[(g0 + i) % s.stream.size()]
                                          .kind)]
            .push_back(out.latencyMs.back());
        dispatches.push_back(lr.dispatchUs);
        // The batch ran on whichever epoch was published when it
        // started: the last one whose reload had finished by its
        // dispatch, or any reloaded before it completed.
        Served sv{g0 + i, {epoch0}, lr.response};
        for (const Reload &rl : reloads) {
            if (rl.endUs <= lr.dispatchUs)
                sv.epochs.assign(1, rl.epoch);
            else if (rl.beginUs <= lr.doneUs)
                sv.epochs.push_back(rl.epoch);
        }
        served.push_back(std::move(sv));
    }
    std::sort(dispatches.begin(), dispatches.end());
    out.batches = static_cast<std::uint64_t>(
        std::unique(dispatches.begin(), dispatches.end())
        - dispatches.begin());
    return out;
}

/** Per-layer accounting of the traced replay. */
struct ReplayStats
{
    std::map<kernels::Workload, std::uint64_t> kindRequests;
    std::uint64_t requests = 0;
    std::uint64_t reporting = 0;
    std::uint64_t cells = 0;
    std::uint64_t tracebackCells = 0;
    std::uint64_t probes = 0;
    std::uint64_t candidates = 0;
    std::uint64_t fallbacks = 0;
    double dbSequences = 0.0;
    align::NativeScanStats native;
};

/**
 * One request composed from the layers' public calls, each inside
 * a span: the same steps Engine::runBatch takes for it.
 */
std::vector<align::SearchHit>
composedServe(const serve::Request &req, const index::DbEpoch &ep,
              const serve::ShardedDatabase &sharded,
              const serve::EngineConfig &c, SpanRecorder &spans,
              ReplayStats &st,
              std::vector<align::CigarAlignment> &alignments)
{
    const SpanRecorder::Scope root(spans, "request", req.id);
    std::unique_ptr<serve::PreparedQuery> pq;
    {
        const SpanRecorder::Scope s(spans, "prepare", req.id);
        pq = std::make_unique<serve::PreparedQuery>(
            req, bio::blosum62(), c.gaps, c.fasta, c.blast, c.backend,
            c.blastn);
    }
    serve::ScanRoute route;
    route.interseqCutover = c.interseqCutover;
    std::vector<std::uint32_t> candidates;
    if (ep.index && pq->kind() == kernels::Workload::Blast
        && pq->neighborhoodIndex() != nullptr
        && ep.index->wordSize() == pq->blastParams().wordSize) {
        const SpanRecorder::Scope s(spans, "probe", req.id);
        candidates = index::probeCandidates(
            *ep.index, *pq->neighborhoodIndex(), pq->blastParams(), 0,
            ep.db.size());
        ++st.probes;
        st.candidates += candidates.size();
        if (static_cast<double>(candidates.size())
            > c.indexMaxSelectivity * static_cast<double>(ep.db.size()))
            ++st.fallbacks;
        else
            route.indexCandidates = &candidates;
    }
    const double total = static_cast<double>(ep.db.totalResidues());
    std::vector<std::vector<align::SearchHit>> lists;
    const std::string scan_name = "scan." + kindKey(req.kind);
    for (const serve::Shard &shard : sharded.shards()) {
        const SpanRecorder::Scope s(spans, scan_name, req.id);
        serve::ShardScan scan =
            serve::scanShard(*pq, ep.db, shard, kTopK,
                             align::blosum62Karlin(), total, route);
        st.cells += scan.cells;
        st.native += scan.native;
        lists.push_back(std::move(scan.hits));
    }
    std::vector<align::SearchHit> hits;
    {
        const SpanRecorder::Scope s(spans, "merge", req.id);
        hits = serve::mergeRanked(lists, kTopK);
    }
    if (req.reportAlignments) {
        ++st.reporting;
        for (const align::SearchHit &h : hits) {
            const SpanRecorder::Scope s(spans, "traceback", req.id);
            align::TracebackStats ts;
            alignments.push_back(
                pq->traceback(ep.db[h.dbIndex], h, &ts));
            st.tracebackCells += ts.totalCells;
        }
    }
    ++st.requests;
    ++st.kindRequests[req.kind];
    return hits;
}

double
ratio(double num, double den)
{
    return den <= 0.0 ? 0.0 : num / den;
}

void
reportReplay(const ReplayStats &st, const SpanRecorder &spans,
             Report &report)
{
    const std::map<std::string, double> self = spans.selfUsByName();
    const auto selfMs = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / 1000.0;
    };
    double scan_ms = 0.0;
    for (const kernels::Workload w : kernels::allWorkloads) {
        const std::string key = kindKey(w);
        const auto it = st.kindRequests.find(w);
        const double n = it == st.kindRequests.end()
            ? 0.0
            : static_cast<double>(it->second);
        scan_ms += selfMs("scan." + key);
        report.metric("serve.scan_ms." + key,
                      ratio(selfMs("scan." + key), n), "ms");
    }
    const double requests = static_cast<double>(st.requests);
    const double scans = static_cast<double>(st.native.scans);
    report.metric("serve.scan_cells",
                  ratio(static_cast<double>(st.cells), requests),
                  "cells");
    report.metric("serve.scan_gcups",
                  ratio(static_cast<double>(st.cells), scan_ms * 1e6),
                  "GCUPS");
    report.metric("align.rescan16_frac",
                  ratio(static_cast<double>(st.native.rescans16), scans),
                  "frac");
    report.metric(
        "align.rescan_scalar_frac",
        ratio(static_cast<double>(st.native.rescansScalar), scans),
        "frac");
    report.metric(
        "align.interseq_frac",
        ratio(static_cast<double>(st.native.interSequence), scans),
        "frac");
    report.metric("serve.prepare_ms", ratio(selfMs("prepare"), requests),
                  "ms");
    report.metric("serve.merge_ms", ratio(selfMs("merge"), requests),
                  "ms");
    const double reporting = static_cast<double>(st.reporting);
    report.metric("align.traceback_ms",
                  ratio(selfMs("traceback"), reporting), "ms");
    report.metric(
        "align.traceback_cells",
        ratio(static_cast<double>(st.tracebackCells), reporting),
        "cells");
    report.metric("align.traceback_mcups",
                  ratio(static_cast<double>(st.tracebackCells),
                        selfMs("traceback") * 1e3),
                  "MCUPS");
    const double probes = static_cast<double>(st.probes);
    report.metric("index.probe_ms", ratio(selfMs("probe"), probes), "ms");
    report.metric("index.candidate_frac",
                  ratio(static_cast<double>(st.candidates),
                        probes * st.dbSequences),
                  "frac");
    report.metric("index.fallback_frac",
                  ratio(static_cast<double>(st.fallbacks), probes),
                  "frac");
}


/** Loop, cache, pool and snapshot layers of the untraced segment. */
struct LoopLayers
{
    double indexBuildMs = 0.0;
    double cacheHitFrac = 0.0;
    double cacheEvictions = 0.0;
    double queueWaitP50Ms = 0.0;
    double queueWaitTailMs = 0.0;
    double batchMean = 0.0;
    double genLateMs = 0.0;
    double poolBusyFrac = 0.0;
    double snapshotMs = 0.0;
    double snapshotBytes = 0.0;
};

void
reportLoopLayers(const LoopLayers &l, Report &report)
{
    report.metric("index.build_ms", l.indexBuildMs, "ms");
    report.metric("serve.cache_hit_frac", l.cacheHitFrac, "frac");
    report.metric("serve.cache_evictions", l.cacheEvictions, "count");
    report.metric("serve.loop.queue_wait_p50_ms", l.queueWaitP50Ms, "ms");
    report.metric("serve.loop.queue_wait_tail_ms", l.queueWaitTailMs,
                  "ms");
    report.metric("serve.loop.batch_mean", l.batchMean, "requests");
    report.metric("serve.loop.gen_late_ms", l.genLateMs, "ms");
    report.metric("core.pool_busy_frac", l.poolBusyFrac, "frac");
    report.metric("obs.snapshot_ms", l.snapshotMs, "ms");
    report.metric("obs.snapshot_bytes", l.snapshotBytes, "bytes");
}

} // namespace

void
reportIdleServeLayers(Report &report)
{
    SpanRecorder none;
    reportReplay(ReplayStats{}, none, report);
    reportLoopLayers(LoopLayers{}, report);
}

void
runServeWorkload(const Options &opt, Report &report)
{
    std::vector<double> setup_ms(
        static_cast<std::size_t>(std::max(1, opt.setupReps)), 0.0);
    std::unique_ptr<Setup> s;
    for (double &ms : setup_ms) {
        s.reset();
        const WallClock::time_point t0 = WallClock::now();
        s = buildSetup(opt);
        ms = msSince(t0);
    }
    // The served kinds, characterized on the simulator over a small
    // working set (the run's sim metrics).
    std::vector<kernels::Workload> sim_kinds;
    for (const kernels::Workload w : kernels::allWorkloads)
        for (const Item &it : s->stream)
            if (it.kind == w) {
                sim_kinds.push_back(w);
                break;
            }

    kernels::TraceSpec probe;
    probe.dbSequences = kProbeDbSeqs;
    Characterizer chr(opt, probe, std::move(sim_kinds), false, setup_ms,
                      report, nullptr);

    const double serve_ms =
        opt.seconds * 1000.0 * (1.0 - kSimShare)
        * (opt.trace ? 0.5 : 1.0);
    const double closed_ms = serve_ms * kClosedShare;
    obs::Registry &reg = s->server().metrics();
    const std::uint64_t hits0 = reg.counterValue("serve_cache_hits_total");
    const std::uint64_t miss0 =
        reg.counterValue("serve_cache_misses_total");
    const std::uint64_t evict0 =
        reg.counterValue("serve_cache_evictions_total");

    // An untimed warm-up lets lazy set-up and caches settle; its
    // responses are checked with the closed loop's. The timed phases
    // then run in slices, so that each metric averages the host's
    // speed over the whole run rather than one stretch of it.
    constexpr int kSlices = 3;
    std::uint64_t g = 0;
    std::vector<Served> closed_served;
    (void)closedLoop(*s, g, std::min(1000.0, 0.1 * serve_ms),
                     closed_served);
    std::vector<double> windows;
    double closed_busy_us = 0.0;
    double closed_wall_ms = 0.0;
    OpenResult open;
    // Each slice's open loop repeats the same experiment; latency is
    // read per repetition (see below).
    std::vector<double> slice_p50;
    std::vector<Tail> slice_tail;
    std::vector<Served> open_served;
    for (int slice = 0; slice < kSlices; ++slice) {
        chr.runFor(opt.seconds * kSimShare / kSlices);
        const ClosedResult c =
            closedLoop(*s, g, closed_ms / kSlices, closed_served);
        for (const double w : c.windowQps())
            windows.push_back(w);
        closed_busy_us += c.busyUs;
        closed_wall_ms += c.ms;
        OpenResult o = openLoop(opt, *s, g,
                                static_cast<std::uint64_t>(std::llround(
                                    opt.rate * (serve_ms - closed_ms)
                                    / 1000.0 / kSlices)),
                                open_served);
        slice_p50.push_back(median(o.latencyMs));
        slice_tail.push_back(tailOf(o.latencyMs));
        open.append(std::move(o));
    }
    // Before the output checks, which are not part of serving.
    if (!opt.trace)
        report.metric("peak_rss_mb", peakRssMb(), "MB");
    chr.finish();

    const std::uint64_t closed_failed =
        checkServed(opt, *s, closed_served, report);
    if (open.reloadFailures > 0)
        report.fail(std::to_string(open.reloadFailures)
                    + " reloads threw");
    const std::uint64_t open_failed =
        checkServed(opt, *s, open_served, report) + open.notServed;
    report.phase(Phase{"closed", closed_served.size(),
                       closed_served.size() - closed_failed,
                       closed_failed});
    report.phase(Phase{"open", open.sent, open.sent - open_failed,
                       open_failed});
    report.detail("open_rate_per_s", jsonNumber(opt.rate));
    // The open-loop latency taken apart: the generator's lateness,
    // the wait in the loop's queue, the engine's service time, and
    // the latency of each request kind (cache hits apart).
    std::string by_kind;
    for (const auto &[group, ms] : open.latencyMsBy)
        by_kind += (by_kind.empty() ? "" : ", ") + jsonString(group)
            + ": {\"share\": "
            + jsonNumber(ratio(static_cast<double>(ms.size()),
                               static_cast<double>(open.latencyMs.size())))
            + ", \"p50_ms\": " + jsonNumber(median(ms)) + "}";
    report.detail("open_p50_ms",
                  "{\"late\": " + jsonNumber(median(open.lateMs))
                      + ", \"queue_wait\": "
                      + jsonNumber(median(open.queueWaitMs))
                      + ", \"service\": "
                      + jsonNumber(median(open.serviceMs))
                      + ", \"latency\": "
                      + jsonNumber(median(open.latencyMs))
                      + ", \"by_kind\": {" + by_kind + "}}");

    if (!opt.trace) {
        // The median window: a burst of load from outside the
        // process moves one window, not the median.
        report.metric("qps", median(windows), "1/s");
        std::string list;
        for (const double w : windows)
            list += (list.empty() ? "" : ", ") + jsonNumber(w);
        report.detail("closed_window_qps", "[" + list + "]");
        // Latency is the best of the slices' repetitions, each
        // statistic on its own, as timeit reports its best repeat:
        // the host's slow stretches last seconds to a minute and
        // move whole repetitions, while a slower program moves all.
        const Tail tail = *std::min_element(
            slice_tail.begin(), slice_tail.end(),
            [](const Tail &a, const Tail &b) { return a.value < b.value; });
        report.metric("latency_p50_ms",
                      *std::min_element(slice_p50.begin(), slice_p50.end()),
                      "ms");
        report.metric("latency_tail_ms", tail.value, "ms");
        std::string p50s;
        std::string tails;
        for (int i = 0; i < kSlices; ++i) {
            p50s += (i == 0 ? "" : ", ") + jsonNumber(slice_p50[i]);
            tails += (i == 0 ? "" : ", ") + jsonNumber(slice_tail[i].value);
        }
        report.detail("latency_tail",
                      "{\"percentile\": " + jsonNumber(tail.percentile)
                          + ", \"samples\": "
                          + std::to_string(tail.samples)
                          + ", \"repetitions\": "
                          + std::to_string(kSlices) + "}");
        report.detail("latency_by_repetition_ms",
                      "{\"p50\": [" + p50s + "], \"tail\": [" + tails
                          + "]}");
        report.metric("setup_s", median(setup_ms) / 1000.0, "s");
        return;
    }

    // Loop-layer metrics of the (untraced) loop segment above.
    LoopLayers loop;
    const double hits = static_cast<double>(
        reg.counterValue("serve_cache_hits_total") - hits0);
    const double misses = static_cast<double>(
        reg.counterValue("serve_cache_misses_total") - miss0);
    loop.indexBuildMs = s->indexBuildMs;
    loop.cacheHitFrac = ratio(hits, hits + misses);
    loop.cacheEvictions = static_cast<double>(
        reg.counterValue("serve_cache_evictions_total") - evict0);
    loop.queueWaitP50Ms = median(open.queueWaitMs);
    loop.queueWaitTailMs = tailOf(open.queueWaitMs).value;
    loop.batchMean = ratio(static_cast<double>(open.latencyMs.size()),
                           static_cast<double>(open.batches));
    loop.genLateMs = bioarch::core::percentile(open.lateMs, 99.0);
    loop.poolBusyFrac =
        ratio(closed_busy_us / 1000.0, closed_wall_ms * opt.jobs);
    std::vector<double> snap_ms;
    for (int i = 0; i < 5; ++i) {
        std::ostringstream out;
        const WallClock::time_point t0 = WallClock::now();
        obs::writeJson(reg, out);
        snap_ms.push_back(msSince(t0));
        loop.snapshotBytes = static_cast<double>(out.str().size());
    }
    loop.snapshotMs = median(snap_ms);
    reportLoopLayers(loop, report);

    // Traced replay at jobs=1, interleaved request by request with
    // an untraced jobs=1 Engine replay of the same requests.
    std::vector<std::unique_ptr<serve::Engine>> engines;
    std::vector<std::unique_ptr<serve::ShardedDatabase>> sharded;
    for (std::size_t e = 0; e < s->epochs.size(); ++e) {
        engines.push_back(std::make_unique<serve::Engine>(
            s->epochs[e]->db, epochConfig(*s, e, 1)));
        sharded.push_back(std::make_unique<serve::ShardedDatabase>(
            s->epochs[e]->db, s->cfg.shards));
    }
    SpanRecorder spans;
    ReplayStats st;
    st.dbSequences = static_cast<double>(s->epochs[0]->db.size());
    double traced_us = 0.0;
    double untraced_us = 0.0;
    Phase traced{"traced"};
    const WallClock::time_point t0 = WallClock::now();
    for (std::uint64_t rg = 0;
         rg == 0 || msSince(t0) < serve_ms; ++rg) {
        const serve::Request req = s->request(rg);
        const std::size_t e = s->epochOf(rg);
        serve::Response want;
        std::vector<align::SearchHit> got;
        std::vector<align::CigarAlignment> alignments;
        for (int pass = 0; pass < 2; ++pass) {
            const WallClock::time_point tp = WallClock::now();
            if ((pass + rg) % 2 == 0) {
                want = engines[e]->serve(req);
                untraced_us += msSince(tp) * 1000.0;
            } else {
                got = composedServe(req, *s->epochs[e], *sharded[e],
                                    engines[e]->config(), spans, st,
                                    alignments);
                traced_us += msSince(tp) * 1000.0;
            }
        }
        ++traced.sent;
        if (sameHits(got, want.hits) && alignments == want.alignments) {
            ++traced.succeeded;
        } else {
            ++traced.failed;
            report.fail("traced request " + std::to_string(rg)
                        + ": composed replay differs from the Engine");
        }
    }
    report.phase(traced);
    reportReplay(st, spans, report);
    finishTrace(opt, spans, traced_us, untraced_us, report);
}

} // namespace perfbench
