/**
 * @file
 * Linear-space affine-gap local traceback (Hirschberg / Myers-Miller).
 *
 * The serving tier's phase-2 reporter: given a (query, subject)
 * pair whose top-K rank is already known from the score scan, emit
 * the optimal local alignment as a CIGAR in O(min(m, n)) space —
 * long subjects never allocate a full DP matrix.
 *
 * Three passes, all over linear arrays:
 *
 *   1. a forward Smith-Waterman score pass finds the optimal score
 *      and its END point (qEnd, sEnd);
 *   2. a reverse *globally anchored* Needleman-Wunsch pass over the
 *      reversed prefixes finds the BEGIN point: the (i, j) prefix
 *      pair of the reversed strings whose global alignment score
 *      equals the local score. (A second local pass would be wrong:
 *      its argmax may belong to a different, equal-scoring
 *      alignment that does not end at (qEnd, sEnd).)
 *   3. Myers-Miller divide-and-conquer global alignment between
 *      begin and end emits the CIGAR, splitting on the middle row
 *      and recursing on the two halves with boundary-gap credits
 *      (tb/te) so a gap crossing the split is charged one open.
 *
 * Two cross-pass fusions cut the constant factor: the end-pass
 * captures its clamped H row at the fixed row m/2, letting the
 * reverse pass stop there and join mid-matrix (an anchored-local
 * top plus a global bottom) instead of sweeping the whole window;
 * and the reverse pass captures its rows at the window midpoint,
 * which ARE Myers-Miller's top-level backward arrays, so the
 * divide-and-conquer skips its own first backward half.
 *
 * The emitted CIGAR replays to exactly the reported score via
 * cigarScore(), and the score is bit-identical to the full-matrix
 * smithWatermanAlign() — both asserted on fuzzed pairs by
 * tests/traceback_test.cc.
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH
#define BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH

#include <cstdint>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "cigar.hh"

namespace bioarch::align
{

/**
 * Traceback work accounting. peakCells is the high-water mark of
 * concurrently live DP array elements — the linear-space guarantee
 * is asserted as peakCells = O(min(m, n)), never O(m * n).
 */
struct TracebackStats
{
    std::uint64_t totalCells = 0; ///< DP cells evaluated
    std::uint64_t peakCells = 0;  ///< max live DP array elements
    /** Local tracebacks emitted by the SIMD-anchored band. */
    std::uint64_t simdPaths = 0;
    /** Local tracebacks Hirschberg emitted (nativeTraceback's
     * fallback, or serving without hardware SIMD). */
    std::uint64_t hirschbergPaths = 0;
    /** Band doublings nativeTraceback needed to reach the score. */
    std::uint64_t bandDoublings = 0;

    TracebackStats &
    operator+=(const TracebackStats &other)
    {
        totalCells += other.totalCells;
        peakCells = peakCells > other.peakCells ? peakCells
                                                : other.peakCells;
        simdPaths += other.simdPaths;
        hirschbergPaths += other.hirschbergPaths;
        bandDoublings += other.bandDoublings;
        return *this;
    }
};

/**
 * Optimal local alignment of @p query vs @p subject as a CIGAR, in
 * O(min(m, n)) space and O(m * n) time. Returns an empty alignment
 * (score 0) when no residue pair scores positive.
 */
CigarAlignment
hirschbergAlign(const bio::Residue *query, std::size_t query_len,
                const bio::Residue *subject, std::size_t subject_len,
                const bio::ScoringMatrix &matrix,
                const bio::GapPenalties &gaps,
                TracebackStats *stats = nullptr);

/** Sequence-object convenience overload. */
CigarAlignment
hirschbergAlign(const bio::Sequence &query,
                const bio::Sequence &subject,
                const bio::ScoringMatrix &matrix,
                const bio::GapPenalties &gaps,
                TracebackStats *stats = nullptr);

/**
 * Local traceback anchored at a known end cell (query_end,
 * subject_end) — e.g. the endpoint a score-only scan already
 * reported. Skips the forward end-pass entirely, so it costs only
 * the reverse begin-pass over the anchored prefixes plus the
 * divide-and-conquer over the aligned window. The score is the
 * best local alignment ending exactly at the anchor; when the
 * anchor is an argmax cell of the Smith-Waterman matrix this is
 * the optimal local score, bit-identical to hirschbergAlign's.
 *
 * A half-known anchor (one coordinate negative or out of range —
 * the striped kernels report the subject end column but not the
 * query row) truncates the sequence whose end IS known to end + 1
 * and realigns with hirschbergAlign: the truncated matrix still
 * contains an argmax cell, so the score and replay stay exact.
 * With both coordinates unknown this degenerates to a plain
 * hirschbergAlign over the full pair.
 */
CigarAlignment
hirschbergAlignAnchored(const bio::Residue *query,
                        std::size_t query_len,
                        const bio::Residue *subject,
                        std::size_t subject_len, int query_end,
                        int subject_end,
                        const bio::ScoringMatrix &matrix,
                        const bio::GapPenalties &gaps,
                        TracebackStats *stats = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_HIRSCHBERG_HH
