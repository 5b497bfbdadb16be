/**
 * @file
 * Header-only FASTA scan body with a trace policy.
 *
 * align::fastaScan is this template instantiated with
 * FastaNoTrace, whose hooks compile to nothing. The FASTA34 traced
 * kernel (src/kernels) instantiates the same body with a policy
 * that emits the instruction pattern of each hook, so the trace and
 * the scores come from one pipeline. Hooks only observe: they
 * receive positions and branch outcomes the body has already
 * decided. The one exception is the opt stage's banded DP, which
 * the body asks the policy to run (optBand): FastaNoTrace runs the
 * SIMD band kernel, a traced policy the scalar band with its
 * per-cell hook. Both return the same score.
 */

#ifndef BIOARCH_ALIGN_FASTA_IMPL_HH
#define BIOARCH_ALIGN_FASTA_IMPL_HH

#include <algorithm>
#include <vector>

#include "banded_native.hh"
#include "fasta.hh"

namespace bioarch::align
{

/** The fastaScan trace hooks, as no-ops, and the score-only opt
 * band. */
struct FastaNoTrace
{
    /** The query's band profile; nullptr runs the scalar band. */
    const BandProfile *band = nullptr;
    /** Optional band path accounting (bandSimd / bandScalar). */
    NativeScanStats *stats = nullptr;

    /** Stage 2 (the word scan) starts. */
    void scan() {}
    /** Subject word @p word at position @p j; @p hits: its query
     * position list is non-empty. */
    void word(int /*j*/, std::uint32_t /*word*/, bool /*hits*/) {}
    /**
     * Hit @p slot of the word's position list, on diagonal slot
     * @p d: whether it overlapped the run's last word, extended the
     * run (when it did not overlap), raised the diagonal's best,
     * and whether more hits follow.
     */
    void hit(int /*slot*/, int /*d*/, bool /*overlap*/,
             bool /*extend*/, bool /*improved*/, bool /*more*/)
    {
    }
    /** The word is done; @p more: another word follows. */
    void wordEnd(bool /*more*/) {}
    /** Savemax sweep visits diagonal slot @p d; @p region: it holds
     * a candidate region. */
    void sweep(int /*d*/, bool /*region*/) {}
    /** A region's matrix rescoring (Kadane run) starts. */
    void rescore() {}
    /** Rescored cell (@p i, @p j): whether the run restarted, raised
     * the region's best, and whether more cells follow. */
    void rescoreCell(int /*i*/, int /*j*/, bool /*restart*/,
                     bool /*improved*/, bool /*more*/)
    {
    }
    /** Stage 4 (region chaining) starts. */
    void chain() {}
    /** A region is chained; @p joins: it extends the chain. */
    void chainRegion(bool /*joins*/) {}
    /** Stage 5 gate; @p runs: initn reached the opt threshold. */
    void opt(bool /*runs*/) {}
    /** Stage 5's banded DP: the opt score of query[0, m) against
     * subject[0, n) (bandedScore). */
    int
    optBand(const bio::Residue *query, int m,
            const bio::Residue *subject, int n,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, int center, int half_width)
    {
        return bandedScore(band, query, 0, m, subject, n, matrix, gaps,
                           center, half_width, stats);
    }
};

/**
 * Rescore a diagonal run with the substitution matrix: best
 * contiguous sub-segment (Kadane) over the aligned residue pairs of
 * diagonal @p diag between query rows [lo, hi].
 */
template <typename Trace>
FastaRegion
rescoreRun(const bio::Sequence &query, const bio::Sequence &subject,
           const bio::ScoringMatrix &matrix, int diag, int lo, int hi,
           Trace &trace)
{
    FastaRegion out;
    out.diag = diag;
    int run = 0;
    int run_start = lo;
    trace.rescore();
    for (int i = lo; i <= hi; ++i) {
        const int j = i + diag;
        const int s = matrix.score(query[i], subject[j]);
        const bool restart = run <= 0;
        if (restart) {
            run = s;
            run_start = i;
        } else {
            run += s;
        }
        const bool improved = run > out.score;
        if (improved) {
            out.score = run;
            out.queryStart = run_start;
            out.queryEnd = i;
        }
        trace.rescoreCell(i, j, restart, improved, i + 1 <= hi);
    }
    return out;
}

/**
 * fastaScan (fasta.hh) with trace policy @p trace.
 *
 * A query or subject shorter than ktup skips the word scan; the
 * later stages then find no region and return zero scores.
 */
template <typename Trace>
FastaScores
fastaScan(const KtupIndex &index, const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const FastaParams &params,
          std::uint64_t *cells, Trace &trace)
{
    FastaScores out;
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int ktup = index.ktup();

    // Stage 2: diagonal hit accumulation. For each diagonal we track
    // the last hit and a running hit-count score; a gap between hits
    // on the same diagonal pays a distance penalty, and when the
    // running score goes negative the run is flushed as a candidate
    // region (the "savemax" of fasta's dropff.c).
    const int num_diags = m + n - 1;
    const int diag_offset = m - 1; // diag d=j-i maps to d+offset >= 0
    struct DiagState
    {
        std::int32_t lastQueryPos = -1000000;
        std::int32_t runStart = 0;
        std::int32_t runScore = 0;
        std::int32_t bestScore = 0;
        std::int32_t bestStart = 0;
        std::int32_t bestEnd = 0;
    };
    std::vector<DiagState> diags(
        static_cast<std::size_t>(std::max(num_diags, 1)));

    const int hit_bonus = 4 * ktup; // nominal score per word hit
    const auto *sres = subject.residues().data();

    if (m >= ktup && n >= ktup) {
        trace.scan();
        for (int j = 0; j + ktup <= n; ++j) {
            const std::uint32_t w = index.encode(sres + j);
            const auto [begin, end] = index.positions(w);
            trace.word(j, w, begin != end);
            for (const std::int32_t *p = begin; p != end; ++p) {
                const int i = *p;
                const int d = j - i + diag_offset;
                DiagState &ds = diags[static_cast<std::size_t>(d)];
                const int gap = i - ds.lastQueryPos - ktup;
                const bool overlap = gap < 0;
                const bool extend = !overlap && ds.runScore - gap > 0;
                if (overlap) {
                    // Overlapping word; extends the run with no
                    // penalty.
                    ds.runScore += hit_bonus + 2 * gap;
                } else if (extend) {
                    ds.runScore += hit_bonus - gap;
                } else {
                    ds.runScore = hit_bonus;
                    ds.runStart = i;
                }
                ds.lastQueryPos = i;
                const bool improved = ds.runScore > ds.bestScore;
                if (improved) {
                    ds.bestScore = ds.runScore;
                    ds.bestStart = ds.runStart;
                    ds.bestEnd = i + ktup - 1;
                }
                trace.hit(static_cast<int>(p - begin), d, overlap,
                          extend, improved, p + 1 != end);
            }
            if (cells)
                *cells += static_cast<std::uint64_t>(end - begin) + 1;
            trace.wordEnd(j + ktup + 1 <= n);
        }
    }

    // Collect the best regions across diagonals.
    std::vector<FastaRegion> candidates;
    for (int d = 0; d < num_diags; ++d) {
        const DiagState &ds = diags[static_cast<std::size_t>(d)];
        trace.sweep(d, ds.bestScore > 0);
        if (ds.bestScore <= 0)
            continue;
        FastaRegion r;
        r.diag = d - diag_offset;
        r.queryStart = ds.bestStart;
        r.queryEnd = ds.bestEnd;
        r.score = ds.bestScore;
        candidates.push_back(r);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.score > b.score;
              });
    if (static_cast<int>(candidates.size()) > params.maxRegions)
        candidates.resize(static_cast<std::size_t>(params.maxRegions));

    // Stage 3: matrix rescoring of each region (init1).
    for (FastaRegion &r : candidates) {
        r = rescoreRun(query, subject, matrix, r.diag,
                       std::max(0, r.queryStart),
                       std::min({r.queryEnd, m - 1, n - 1 - r.diag}),
                       trace);
        if (cells)
            *cells += static_cast<std::uint64_t>(
                r.queryEnd - r.queryStart + 1);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.score > b.score;
              });
    while (!candidates.empty() && candidates.back().score <= 0)
        candidates.pop_back();
    out.regions = candidates;
    if (candidates.empty())
        return out;
    out.init1 = candidates.front().score;

    // Stage 4: join regions (initn). Greedy chain in query order:
    // regions must not overlap in query rows; each join pays the
    // fixed gap penalty.
    std::vector<FastaRegion> byQuery = candidates;
    std::sort(byQuery.begin(), byQuery.end(),
              [](const FastaRegion &a, const FastaRegion &b) {
                  return a.queryStart < b.queryStart;
              });
    int chain = 0;
    int chain_end = -1;
    int chain_diag_end = -1000000;
    trace.chain();
    for (const FastaRegion &r : byQuery) {
        const int subj_start = r.queryStart + r.diag;
        const bool joins =
            r.queryStart > chain_end && subj_start > chain_diag_end;
        trace.chainRegion(joins);
        if (joins) {
            const int joined =
                chain > 0 ? chain + r.score - params.joinGapPenalty
                          : r.score;
            chain = std::max(joined, r.score);
        } else {
            chain = std::max(chain, r.score);
        }
        chain_end = std::max(chain_end, r.queryEnd);
        chain_diag_end =
            std::max(chain_diag_end, r.queryEnd + r.diag);
    }
    out.initn = std::max(chain, out.init1);

    // Stage 5: banded optimization around the best region (opt).
    const bool run_opt = out.initn >= params.optThreshold;
    trace.opt(run_opt);
    if (run_opt) {
        out.opt = trace.optBand(query.residues().data(), m, sres, n,
                                matrix, gaps, candidates.front().diag,
                                params.bandHalfWidth);
        if (cells) {
            *cells += static_cast<std::uint64_t>(
                          2 * params.bandHalfWidth + 1)
                * static_cast<std::uint64_t>(n);
        }
    }
    return out;
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_FASTA_IMPL_HH
