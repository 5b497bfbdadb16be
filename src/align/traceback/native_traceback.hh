/**
 * @file
 * SIMD-anchored local traceback for the Smith-Waterman kinds (and
 * FASTA's reported alignment): the SSW recipe on the native i16
 * striped kernel, with Hirschberg kept as fallback and oracle.
 *
 * Given the optimal score S of (query, subject) — which the ranked
 * scan already computed — the alignment is found in four steps:
 *
 *   1. End pass. An i16 striped local pass over the subject (up to
 *      the scan's end column when it reported one) stops at the
 *      first column sEnd whose best cell reaches S; qEnd is the
 *      smallest row in that column with H == S.
 *   2. Begin pass. The same kernel, on a 16-bit profile of the
 *      reversed query prefix q[0..qEnd] against the reversed
 *      subject prefix s[0..sEnd], stops at the first reversed
 *      column reaching S, smallest row there: (i', j'). The begin
 *      cell is (qEnd - i', sEnd - j').
 *   3. Emission. bandedExtendAlign over the begin-end window,
 *      centred on the window's diagonal with half-width
 *      |delta| / 2 + 16 (delta = window width - window height),
 *      doubling the half-width until the band's score equals S.
 *   4. Fallback. hirschbergAlignAnchored takes over when S does not
 *      fit i16 lanes (it then uses the scan's own end cell), when a
 *      doubled band would cover the whole window, or when a band's
 *      direction bytes would exceed a fixed cap (the last two run
 *      on the window alone, with both ends known). A first band
 *      that already covers a small window is simply a full DP of
 *      it and always reaches S.
 *
 * Why the first-column / smallest-row rule makes step 2 exact.
 * Every local alignment lying inside the rectangle
 * [0..qEnd] x [0..sEnd] with score S ends at (qEnd, sEnd): its end
 * cell (i, j) has H(i, j) >= S, and H never exceeds the optimum S,
 * so H(i, j) == S. Step 1 saw no cell reach S in a column before
 * sEnd, so j == sEnd, and none in column sEnd above qEnd, so
 * i == qEnd. Reversing both prefixes maps local alignments of the
 * rectangle one-to-one onto local alignments of the reversed
 * strings with the same score (affine gap costs read the same
 * backwards). The reversed optimum is therefore S, and every
 * reversed alignment of score S starts at reversed cell (0, 0) —
 * the image of (qEnd, sEnd). The cell (i', j') of step 2 holds
 * H == S, so some such alignment ends there: a global alignment
 * of the window q[qEnd-i'..qEnd] x s[sEnd-j'..sEnd] of score S.
 * The same rule, applied to the reversed strings, also makes the
 * window's begin unique: an alignment of score S starting later
 * in the window would reach S in an earlier reversed column (or
 * at a smaller reversed row of the same column). So any band
 * whose local score is S has traced exactly the window from
 * corner to corner, and the reported end cell is the full
 * matrix's first-column / smallest-row argmax.
 *
 * TracebackStats counts the cells of both SIMD passes (rows x
 * columns swept), of every band tried, and of any Hirschberg
 * fallback, plus which path answered (simdPaths / hirschbergPaths)
 * and how many band doublings were needed.
 */

#ifndef BIOARCH_ALIGN_TRACEBACK_NATIVE_TRACEBACK_HH
#define BIOARCH_ALIGN_TRACEBACK_NATIVE_TRACEBACK_HH

#include <cstddef>

#include "align/sw_striped_native.hh"
#include "align/types.hh"
#include "bio/scoring.hh"
#include "cigar.hh"
#include "hirschberg.hh"

namespace bioarch::align
{

/**
 * The optimal local alignment behind @p hit, emitted as a CIGAR.
 *
 * @param profile native profile of the query (its backend runs the
 *        SIMD passes; the query and matrix come from it)
 * @param hit the optimal local score of the pair (hit.score) and,
 *        optionally, the column the scan first attained it in
 *        (hit.subjectEnd, -1 = unknown: the end pass then sweeps
 *        the whole subject). hit.queryEnd is used only by the
 *        saturated-score fallback.
 * @return an alignment of score hit.score whose CIGAR replays to
 *         it; empty when hit.score <= 0
 */
CigarAlignment nativeTraceback(const NativeQueryProfile &profile,
                               const bio::Residue *subject,
                               std::size_t subject_len,
                               const LocalScore &hit,
                               const bio::GapPenalties &gaps,
                               TracebackStats *stats = nullptr);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_TRACEBACK_NATIVE_TRACEBACK_HH
