/**
 * @file
 * Header-only BLASTP scan body with a trace policy.
 *
 * align::blastScan, blastAlign and ungappedExtend are these
 * templates instantiated with BlastNoTrace, whose hooks compile to
 * nothing. The BLAST traced kernel (src/kernels) instantiates the
 * same bodies with a policy that emits the instruction pattern of
 * each hook, so the trace and the scores come from one pipeline.
 * Hooks only observe: they receive positions and branch outcomes
 * the body has already decided. The one exception is the gapped
 * stage's banded DP, which blastScan asks the policy to run
 * (gappedBand): BlastNoTrace runs the SIMD band kernel, a traced
 * policy the scalar band with its per-cell hook. Both return the
 * same score.
 */

#ifndef BIOARCH_ALIGN_BLAST_IMPL_HH
#define BIOARCH_ALIGN_BLAST_IMPL_HH

#include <algorithm>
#include <vector>

#include "banded_native.hh"
#include "blast.hh"
#include "xdrop.hh"

namespace bioarch::align
{

/** The BLASTP trace hooks, as no-ops, and the score-only gapped
 * band. */
struct BlastNoTrace
{
    /** The query's band profile; nullptr runs the scalar band. */
    const BandProfile *band = nullptr;
    /** Optional band path accounting (bandSimd / bandScalar). */
    NativeScanStats *stats = nullptr;

    /** The word scan starts. */
    void scan() {}
    /** Subject word @p word at position @p j; @p hits: its query
     * position list is non-empty. */
    void word(int /*j*/, std::uint32_t /*word*/, bool /*hits*/) {}
    /** Hit @p p (an entry of the index's position lists) lands on
     * diagonal slot @p d; @p covered: inside an extended region. */
    void hit(const std::int32_t * /*p*/, int /*d*/, bool /*covered*/)
    {
    }
    /** The hit's distance to the diagonal's last hit is taken. */
    void distance() {}
    /** Two-hit mode: @p overlaps: the hit overlaps the last one. */
    void overlap(bool /*overlaps*/) {}
    /** The hit is recorded; @p fires: it triggers an extension. */
    void trigger(bool /*fires*/) {}
    /** An ungapped extension starts. */
    void extend() {}
    /** One step of the right (left) x-drop run at query row @p qi,
     * subject column @p sj: whether it raised the best and whether
     * it ended the run. */
    void extendRight(int /*qi*/, int /*sj*/, bool /*improved*/,
                     bool /*drop*/)
    {
    }
    void extendLeft(int /*qi*/, int /*sj*/, bool /*improved*/,
                    bool /*drop*/)
    {
    }
    /** The extension is recorded: whether it is the best HSP so far,
     * and whether more hits of the word follow. */
    void extended(bool /*improved*/, bool /*more*/) {}
    /** The word is done; @p more: another word follows. */
    void wordEnd(bool /*more*/) {}
    /** Gapped-stage gate; @p fires: the best HSP passed the gap
     * trigger. */
    void gapped(bool /*fires*/) {}
    /** The gapped stage's banded DP: the score of query rows
     * [qlo, qlo + m) against subject[0, n) (bandedScore). */
    int
    gappedBand(const bio::Residue *query, int qlo, int m,
               const bio::Residue *subject, int n,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps, int center,
               int half_width)
    {
        return bandedScore(band, query, qlo, m, subject, n, matrix,
                           gaps, center, half_width, stats);
    }
};

/** ungappedExtend (blast.hh) with trace policy @p trace. */
template <typename Trace>
UngappedExtension
ungappedExtend(const bio::Sequence &query, const bio::Sequence &subject,
               const bio::ScoringMatrix &matrix, int qpos, int spos,
               int seed_len, int x_drop, Trace &trace)
{
    UngappedExtension out;
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());

    trace.extend();
    int seed = 0;
    for (int k = 0; k < seed_len; ++k)
        seed += matrix.score(query[qpos + k], subject[spos + k]);

    // Right extension from the end of the seed, then left extension
    // from its start, both via the shared x-drop run scorer.
    const int qr = qpos + seed_len;
    const int sr = spos + seed_len;
    const XdropRun right = xdropRun(
        std::min(m - qpos, n - spos) - seed_len, x_drop,
        [&](int k) { return matrix.score(query[qr + k], subject[sr + k]); },
        [&](int k, bool improved, bool drop) {
            trace.extendRight(qr + k, sr + k, improved, drop);
        });
    const XdropRun left = xdropRun(
        std::min(qpos, spos), x_drop,
        [&](int k) {
            return matrix.score(query[qpos - 1 - k],
                                subject[spos - 1 - k]);
        },
        [&](int k, bool improved, bool drop) {
            trace.extendLeft(qpos - 1 - k, spos - 1 - k, improved,
                             drop);
        });

    out.score = seed + right.best + left.best;
    out.queryStart = qpos - left.len;
    out.queryEnd = qpos + seed_len - 1 + right.len;
    return out;
}

namespace detail
{

/** The word scan + ungapped stage, up to (but not including) the
 * gapped extension: counters plus the best HSP and its diagonal.
 * blastScan and blastAlign share this so the alignment a hit
 * reports is derived from exactly the HSP its score came from. */
struct HspScan
{
    BlastScores scores;       ///< gapped fields still zero
    int bestDiag = 0;
    UngappedExtension bestExt;
};

template <typename Trace>
HspScan
hspScan(const NeighborhoodIndex &index, const bio::Sequence &query,
        const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
        const BlastParams &params, std::uint64_t *cells, Trace &trace)
{
    HspScan hsp;
    BlastScores &out = hsp.scores;
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const int w = index.wordSize();
    if (m < w || n < w)
        return hsp;

    // Per-diagonal state: subject position of the last unextended
    // hit, and the subject position up to which the diagonal has
    // already been covered by an extension (suppresses re-triggering
    // inside an extended region, as NCBI BLAST's diag array does).
    const int num_diags = m + n - 1;
    const int diag_offset = m - 1;
    struct DiagState
    {
        std::int32_t lastHit = -1000000;
        std::int32_t extendedTo = -1;
    };
    std::vector<DiagState> diag(static_cast<std::size_t>(num_diags));

    // Best ungapped HSP seen during the scan; the (single) gapped
    // extension runs around its diagonal after the scan, mirroring
    // how NCBI BLAST gap-extends the preliminary HSP list rather
    // than every triggering seed.
    const auto *sres = subject.residues().data();

    trace.scan();
    for (int j = 0; j + w <= n; ++j) {
        const std::uint32_t word = index.encode(sres + j);
        const auto [begin, end] = index.positions(word);
        trace.word(j, word, begin != end);
        if (cells)
            *cells += 1;
        for (const std::int32_t *p = begin; p != end; ++p) {
            const int i = *p;
            const int d = j - i + diag_offset;
            DiagState &ds = diag[static_cast<std::size_t>(d)];
            ++out.wordHits;
            const bool covered = j <= ds.extendedTo;
            trace.hit(p, d, covered);
            if (covered)
                continue; // inside an already-extended region

            bool trigger;
            trace.distance();
            if (params.twoHit) {
                const int dist = j - ds.lastHit;
                trace.overlap(dist < w);
                if (dist < w) {
                    // Overlapping the previous hit: neither triggers
                    // nor replaces it (otherwise runs of consecutive
                    // hits — e.g. a perfect match — would never put
                    // two non-overlapping hits in the window).
                    continue;
                }
                trigger = dist <= params.twoHitWindow;
            } else {
                trigger = true;
            }
            ds.lastHit = j;
            trace.trigger(trigger);
            if (!trigger)
                continue;

            ++out.extensionsTried;
            const UngappedExtension ext =
                ungappedExtend(query, subject, matrix, i, j, w,
                               params.xDropUngapped, trace);
            if (cells)
                *cells += static_cast<std::uint64_t>(
                    ext.queryEnd - ext.queryStart + 1);
            ds.extendedTo = ext.queryEnd + (j - i);
            const bool improved = ext.score > out.bestUngapped;
            if (improved) {
                out.bestUngapped = ext.score;
                hsp.bestDiag = j - i;
                hsp.bestExt = ext;
            }
            trace.extended(improved, p + 1 != end);
        }
        trace.wordEnd(j + w + 1 <= n);
    }
    return hsp;
}

} // namespace detail

/** blastScan (blast.hh) with trace policy @p trace. */
template <typename Trace>
BlastScores
blastScan(const NeighborhoodIndex &index, const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const BlastParams &params,
          std::uint64_t *cells, Trace &trace)
{
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    const detail::HspScan hsp = detail::hspScan(
        index, query, subject, matrix, params, cells, trace);
    BlastScores out = hsp.scores;

    const bool fires = m >= index.wordSize() && n >= index.wordSize()
        && out.bestUngapped >= params.gapTrigger;
    trace.gapped(fires);
    if (fires) {
        ++out.gappedExtensions;
        // The gapped stage explores a window around the HSP, not
        // the whole subject (the real gapped extension's X-drop
        // keeps it local).
        const GappedWindow win =
            gappedWindow(hsp.bestExt, hsp.bestDiag, m, n,
                         params.gappedWindowMargin);
        const int gapped = trace.gappedBand(
            query.residues().data(), win.queryLo,
            win.queryHi - win.queryLo + 1,
            subject.residues().data() + win.subjectLo,
            win.subjectHi - win.subjectLo + 1, matrix, gaps, win.center,
            params.bandHalfWidth);
        if (cells) {
            *cells += static_cast<std::uint64_t>(
                          2 * params.bandHalfWidth + 1)
                * static_cast<std::uint64_t>(
                          win.subjectHi - win.subjectLo + 1);
        }
        out.score = std::max(gapped, 0);
    }
    return out;
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLAST_IMPL_HH
