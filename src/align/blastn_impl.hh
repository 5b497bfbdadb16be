/**
 * @file
 * Header-only blastn scan body with a trace policy.
 *
 * Both align::blastnScan overloads and blastnAlign run these
 * templates with BlastnNoTrace, whose hooks compile to nothing. The
 * BLASTN traced kernel (src/kernels) instantiates the packed-subject
 * scan with a policy that emits the instruction pattern of each
 * hook, so the trace and the scores come from one pipeline. Hooks
 * only observe: they receive positions and branch outcomes the body
 * has already decided.
 */

#ifndef BIOARCH_ALIGN_BLASTN_IMPL_HH
#define BIOARCH_ALIGN_BLASTN_IMPL_HH

#include <algorithm>
#include <vector>

#include "banded_impl.hh"
#include "bio/scoring.hh"
#include "blast.hh"
#include "blastn.hh"
#include "xdrop.hh"

namespace bioarch::align
{

/** The blastn trace hooks, as no-ops. */
struct BlastnNoTrace
{
    /** The word scan starts. */
    void scan() {}
    /** Subject base @p j is rolled into the word. */
    void roll(int /*j*/) {}
    /** The completed word @p word is probed; @p hits: its query
     * position list is non-empty. */
    void word(std::uint32_t /*word*/, bool /*hits*/) {}
    /** Hit @p slot of the word's position list lands on diagonal
     * slot @p d; @p covered: inside an extended region. */
    void hit(int /*slot*/, int /*d*/, bool /*covered*/) {}
    /** The ungapped extension's right run starts. */
    void extend() {}
    /** Right-run step comparing query base @p qi with subject base
     * @p sj; @p match: they are equal. */
    void rightBase(int /*qi*/, int /*sj*/, bool /*match*/) {}
    /** The right-run step is scored; @p drop: it ends the run. */
    void rightStep(bool /*drop*/) {}
    /** The left run starts, then steps as the right run does. */
    void left() {}
    void leftBase(int /*qi*/, int /*sj*/, bool /*match*/) {}
    void leftStep(bool /*drop*/) {}
    /** The extension is recorded: whether it is the best HSP so far,
     * and whether more hits of the word follow. */
    void extended(bool /*improved*/, bool /*more*/) {}
    /** The word is done; @p more: another base follows. */
    void wordEnd(bool /*more*/) {}
    /** Gapped-stage gate; @p fires: the best HSP passed the gap
     * trigger. */
    void gapped(bool /*fires*/) {}
    /** One banded gapped cell (bandedSmithWatermanScan's hook). */
    void gappedCell(int /*i*/, int /*h*/, int /*f*/) {}
};

namespace detail
{

/** Counters plus the best ungapped HSP of one blastn word scan
 * (the gapped stage runs afterwards). */
struct HspScanN
{
    BlastnScores scores;
    int bestDiag = 0;
    UngappedExtension bestExt;
};

/**
 * The word scan + ungapped x-drop stage, shared — via the
 * subject-base accessor @p sub — between the 2-bit packed subject
 * path and the residue-array path the serving tier scans
 * (identical arithmetic, bit-identical HSPs).
 */
template <typename SubjectAt, typename Trace>
HspScanN
hspScanN(const DnaWordIndex &index, const bio::PackedDna &query,
         SubjectAt &&sub, int n, const BlastnParams &params,
         std::uint64_t *cells, Trace &trace)
{
    HspScanN hsp;
    BlastnScores &out = hsp.scores;
    const int m = static_cast<int>(query.length());
    const int w = index.wordSize();
    if (m < w || n < w)
        return hsp;

    const int num_diags = m + n - 1;
    const int diag_offset = m - 1;
    std::vector<std::int32_t> extended_to(
        static_cast<std::size_t>(num_diags), -1);

    const std::uint32_t mask = static_cast<std::uint32_t>(
        (std::size_t{1} << (2 * w)) - 1);
    std::uint32_t word = 0;
    trace.scan();
    for (int j = 0; j < n; ++j) {
        word = ((word << 2) | sub(j)) & mask;
        trace.roll(j);
        if (j + 1 < w)
            continue;
        const int start = j + 1 - w;
        const auto [begin, end] = index.positions(word);
        trace.word(word, begin != end);
        if (cells)
            ++*cells;
        for (const std::int32_t *p = begin; p != end; ++p) {
            const int i = *p;
            const int d = start - i + diag_offset;
            ++out.wordHits;
            const bool covered =
                start <= extended_to[static_cast<std::size_t>(d)];
            trace.hit(static_cast<int>(p - begin), d, covered);
            if (covered)
                continue;

            // One-hit seeding: extend immediately (classic
            // blastn), unpacking base by base (the
            // READDB_UNPACK_BASE pattern).
            ++out.extensionsTried;
            const int seed = params.matchScore * w;
            const auto base_score = [&](bool match) {
                return match ? params.matchScore
                             : params.mismatchScore;
            };
            trace.extend();
            const XdropRun right = xdropRun(
                std::min(m - i, n - start) - w, params.xDropUngapped,
                [&](int k) {
                    const int qi = i + w + k;
                    const int sj = start + w + k;
                    const bool match =
                        query[static_cast<std::size_t>(qi)] == sub(sj);
                    trace.rightBase(qi, sj, match);
                    return base_score(match);
                },
                [&](int, bool, bool drop) {
                    trace.rightStep(drop);
                    if (cells && !drop)
                        ++*cells;
                });
            trace.left();
            const XdropRun left = xdropRun(
                std::min(i, start), params.xDropUngapped,
                [&](int k) {
                    const int qi = i - 1 - k;
                    const int sj = start - 1 - k;
                    const bool match =
                        query[static_cast<std::size_t>(qi)] == sub(sj);
                    trace.leftBase(qi, sj, match);
                    return base_score(match);
                },
                [&](int, bool, bool drop) {
                    trace.leftStep(drop);
                    if (cells && !drop)
                        ++*cells;
                });

            const int score = seed + right.best + left.best;
            extended_to[static_cast<std::size_t>(d)] =
                start + w - 1 + right.len;
            const bool improved = score > out.bestUngapped;
            if (improved) {
                out.bestUngapped = score;
                hsp.bestDiag = start - i;
                hsp.bestExt.score = score;
                hsp.bestExt.queryStart = i - left.len;
                hsp.bestExt.queryEnd = i + w - 1 + right.len;
            }
            trace.extended(improved, p + 1 != end);
        }
        trace.wordEnd(j + 1 < n);
    }
    return hsp;
}

/** The gapped window of the best HSP (empty() when none fires). */
inline GappedWindow
gappedWindowN(const HspScanN &hsp, int m, int n,
              const BlastnParams &params)
{
    if (hsp.scores.bestUngapped < params.gapTrigger)
        return GappedWindow{};
    return gappedWindow(hsp.bestExt, hsp.bestDiag, m, n,
                        params.gappedWindowMargin);
}

/** Decode packed DNA into a Sequence over residues 0..3 (for the
 * banded gapped stage, which is alphabet-agnostic). */
inline bio::Sequence
decode(const bio::PackedDna &dna, int lo, int hi)
{
    std::vector<bio::Residue> out;
    out.reserve(static_cast<std::size_t>(hi - lo + 1));
    for (int i = lo; i <= hi; ++i)
        out.push_back(
            static_cast<bio::Residue>(dna[static_cast<std::size_t>(i)]));
    return bio::Sequence(dna.id(), "window", std::move(out));
}

/**
 * blastnScan over any subject representation: @p sub reads base
 * k, @p subject_window(lo, hi) extracts the gapped stage's window.
 */
template <typename SubjectAt, typename SubjectWindow, typename Trace>
BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           SubjectAt &&sub, SubjectWindow &&subject_window, int n,
           const BlastnParams &params, std::uint64_t *cells,
           Trace &trace)
{
    const int m = static_cast<int>(query.length());
    const HspScanN hsp =
        hspScanN(index, query, sub, n, params, cells, trace);
    BlastnScores out = hsp.scores;
    const GappedWindow win = gappedWindowN(hsp, m, n, params);
    trace.gapped(!win.empty());
    if (win.empty())
        return out;

    ++out.gappedExtensions;
    const bio::Sequence qw = decode(query, win.queryLo, win.queryHi);
    const bio::Sequence sw = subject_window(win.subjectLo, win.subjectHi);
    const bio::ScoringMatrix mm = bio::makeMatchMismatch(
        params.matchScore, params.mismatchScore);
    const bio::GapPenalties gaps{params.gapOpen, params.gapExtend};
    const LocalScore gapped = bandedSmithWatermanScan(
        qw, sw, mm, gaps, win.center, params.bandHalfWidth,
        [&](int i, int, int h, int, int f) {
            trace.gappedCell(i, h, f);
        });
    if (cells) {
        *cells += static_cast<std::uint64_t>(
                      2 * params.bandHalfWidth + 1)
            * static_cast<std::uint64_t>(win.subjectHi
                                         - win.subjectLo + 1);
    }
    out.score = std::max(gapped.score, 0);
    return out;
}

} // namespace detail

/** blastnScan of a packed subject (blastn.hh) with trace policy
 * @p trace. */
template <typename Trace>
BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           const bio::PackedDna &subject, const BlastnParams &params,
           std::uint64_t *cells, Trace &trace)
{
    return detail::blastnScan(
        index, query,
        [&](int k) { return subject[static_cast<std::size_t>(k)]; },
        [&](int lo, int hi) { return detail::decode(subject, lo, hi); },
        static_cast<int>(subject.length()), params, cells, trace);
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BLASTN_IMPL_HH
