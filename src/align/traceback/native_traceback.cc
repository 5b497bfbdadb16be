#include "native_traceback.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "banded_extend.hh"

namespace bioarch::align
{

namespace
{

/**
 * Largest score (and gap cost) the i16 end/begin passes take: one
 * below the 16-bit level's saturation flag, so no lane clips.
 */
constexpr int maxSimdScore = 32766;

/** First band half-width beyond the window's |delta| / 2. */
constexpr int bandSlack = 16;

/**
 * Direction bytes one band may allocate (window columns x band
 * width); a wider band goes to Hirschberg's linear space instead.
 */
constexpr std::uint64_t maxBandBytes = std::uint64_t{1} << 22;

/** Count one SIMD pass: @p rows x @p cols cells, 3 live rows. */
void
countPass(TracebackStats *stats, std::size_t rows, std::size_t cols)
{
    if (stats == nullptr)
        return;
    stats->totalCells += static_cast<std::uint64_t>(rows)
        * static_cast<std::uint64_t>(cols);
    stats->peakCells = std::max(stats->peakCells,
                                3 * static_cast<std::uint64_t>(rows));
}

/** Shift a window-relative alignment to sequence coordinates. */
CigarAlignment
shifted(CigarAlignment aln, int q0, int s0)
{
    aln.qBegin += q0;
    aln.qEnd += q0;
    aln.sBegin += s0;
    aln.sEnd += s0;
    return aln;
}

} // namespace

CigarAlignment
nativeTraceback(const NativeQueryProfile &profile,
                const bio::Residue *subject, std::size_t subject_len,
                const LocalScore &hit, const bio::GapPenalties &gaps,
                TracebackStats *stats)
{
    const bio::Residue *query = profile.query().residues().data();
    const std::size_t query_len =
        static_cast<std::size_t>(profile.queryLength());
    const bio::ScoringMatrix &matrix = profile.matrix();
    const SimdBackend backend = profile.backend();
    const int score = hit.score;
    const auto took = [&](std::uint64_t TracebackStats::*path) {
        if (stats != nullptr)
            ++(stats->*path);
    };

    if (score <= 0 || query_len == 0 || subject_len == 0) {
        took(&TracebackStats::simdPaths);
        return {};
    }
    const auto hirschberg = [&](int q_end, int s_end) {
        took(&TracebackStats::hirschbergPaths);
        return hirschbergAlignAnchored(query, query_len, subject,
                                       subject_len, q_end, s_end,
                                       matrix, gaps, stats);
    };
    const auto fits_i16 = [](int v) {
        return v >= 0 && v <= maxSimdScore;
    };
    if (!fits_i16(score) || !fits_i16(gaps.openCost())
        || !fits_i16(gaps.extendCost()))
        return hirschberg(hit.queryEnd, hit.subjectEnd);

    // 1. End pass: first column reaching the score, smallest row.
    const std::size_t end_cols = hit.subjectEnd >= 0
            && static_cast<std::size_t>(hit.subjectEnd) < subject_len
        ? static_cast<std::size_t>(hit.subjectEnd) + 1
        : subject_len;
    const LocalScore end = swStripedEnd16(
        backend, profile.striped16(), subject, end_cols, gaps, score);
    countPass(stats, query_len,
              end.score >= score
                  ? static_cast<std::size_t>(end.subjectEnd) + 1
                  : end_cols);
    if (end.score < score) // the hit's end hint was not an argmax
        return hirschberg(hit.queryEnd, hit.subjectEnd);
    const int q_end = end.queryEnd;
    const int s_end = end.subjectEnd;

    // 2. Begin pass over the reversed prefixes.
    const std::size_t rq_len = static_cast<std::size_t>(q_end) + 1;
    const std::size_t rs_len = static_cast<std::size_t>(s_end) + 1;
    std::vector<bio::Residue> rq(query, query + rq_len);
    std::reverse(rq.begin(), rq.end());
    std::vector<bio::Residue> rs(subject, subject + rs_len);
    std::reverse(rs.begin(), rs.end());
    const StripedProfile16 rprofile = makeStripedProfile16(
        rq.data(), static_cast<int>(rq_len), matrix, backend);
    const LocalScore begin = swStripedEnd16(backend, rprofile,
                                            rs.data(), rs_len, gaps,
                                            score);
    countPass(stats, rq_len,
              begin.score >= score
                  ? static_cast<std::size_t>(begin.subjectEnd) + 1
                  : rs_len);
    if (begin.score < score) // unreachable: see the header's proof
        return hirschberg(q_end, s_end);
    const int q_begin = q_end - begin.queryEnd;
    const int s_begin = s_end - begin.subjectEnd;

    // 3. Banded emission over the window, doubling until exact.
    const int rows = q_end - q_begin + 1;
    const int cols = s_end - s_begin + 1;
    const int delta = cols - rows;
    const int center = delta / 2;
    const bio::Residue *wq = query + q_begin;
    const bio::Residue *ws = subject + s_begin;
    const int first_half = std::abs(delta) / 2 + bandSlack;
    for (int half = first_half;; half *= 2) {
        // 4. Fallbacks: a doubled band that would cover the whole
        // window (the path strays that far off the diagonal), or
        // any band needing too many direction bytes. A first band
        // that already covers a small window is an exact full DP.
        const bool covers =
            center - half <= -(rows - 1) && center + half >= cols - 1;
        const std::uint64_t bytes = static_cast<std::uint64_t>(cols)
            * static_cast<std::uint64_t>(2 * half + 1);
        if ((covers && half > first_half) || bytes > maxBandBytes) {
            took(&TracebackStats::hirschbergPaths);
            return shifted(
                hirschbergAlignAnchored(
                    wq, static_cast<std::size_t>(rows), ws,
                    static_cast<std::size_t>(cols), rows - 1,
                    cols - 1, matrix, gaps, stats),
                q_begin, s_begin);
        }
        CigarAlignment band = bandedExtendAlign(
            wq, static_cast<std::size_t>(rows), ws,
            static_cast<std::size_t>(cols), matrix, gaps, center,
            half, -1, stats);
        if (band.score == score) {
            took(&TracebackStats::simdPaths);
            return shifted(std::move(band), q_begin, s_begin);
        }
        if (stats != nullptr)
            ++stats->bandDoublings;
    }
}

} // namespace bioarch::align
