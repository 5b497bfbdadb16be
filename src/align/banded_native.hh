/**
 * @file
 * The SIMD band kernel: score-only banded Smith-Waterman on the
 * native i16 ladder, behind FASTA's opt stage and BLAST's gapped
 * stage.
 *
 * Layout (banded_native_impl.hh): one lane per band row, lane k of
 * subject column j holding query row i = j - d_hi + k, where d_hi is
 * the band's top diagonal. The diagonal predecessor of a cell is
 * then the same lane of the previous column, its left (E)
 * predecessor lane k+1 of the previous column, and its upper (F)
 * predecessor lane k-1 of the same column. F runs down the lanes as
 * a log-step prefix maximum with a carry between registers instead
 * of a lazy-F loop (Snytsar, "De(con)struction of the lazy-F
 * loop"). Lanes outside the band or the query window hold 0, which
 * is exactly how the scalar band (banded_impl.hh) treats every
 * out-of-band neighbour, so the score is bit-identical to
 * bandedSmithWaterman for every input the kernel accepts.
 *
 * The scalar band stays the oracle and the trace path: the traced
 * kernels run it with their per-cell hooks, and bandedScore() falls
 * back to it when the band does not fit 16-bit lanes.
 */

#ifndef BIOARCH_ALIGN_BANDED_NATIVE_HH
#define BIOARCH_ALIGN_BANDED_NATIVE_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "sw_striped_native.hh"
#include "vec/simd_native.hh"

namespace bioarch::align
{

/**
 * Linear 16-bit score profile of one query for the band kernel:
 * row(c)[i] = matrix(c, query[i]) for i in [0, m), padded with
 * zeros on both sides so that every lane load of a band up to
 * maxHalfWidth stays in bounds. Built once per query and shared
 * read-only by every band call.
 */
class BandProfile
{
  public:
    /** Widest band the kernel runs; wider bands use the scalar DP. */
    static constexpr int maxHalfWidth = 64;
    /** Zero-score rows before row 0 and after row m - 1. */
    static constexpr int pad = 2 * maxHalfWidth + 16;

    BandProfile(const bio::Residue *query, int m,
                const bio::ScoringMatrix &matrix, SimdBackend backend);

    SimdBackend backend() const { return _backend; }
    /** Largest matrix score (sets the saturation bound). */
    int maxScore() const { return _maxScore; }
    /** Distance between two residues' rows, in elements. */
    std::size_t stride() const { return _stride; }
    /** Row 0 of residue 0's scores; residue c starts c * stride()
     * elements later, and pad elements either side are readable. */
    const std::int16_t *scores() const { return _scores.get() + pad; }

  private:
    SimdBackend _backend;
    int _maxScore;
    std::size_t _stride;
    vec::native::AlignedArray<std::int16_t> _scores;
};

/**
 * The band profile for @p query on @p backend (Model maps to the
 * best native backend), or nullptr where the kernel does not pay:
 * the Portable backend, whose plain-array lanes run slower than the
 * scalar band.
 */
std::unique_ptr<BandProfile>
makeBandProfile(const bio::Sequence &query,
                const bio::ScoringMatrix &matrix, SimdBackend backend);

/**
 * The band kernel on the profile's backend (any compiled backend,
 * Portable included): the score of bandedSmithWaterman over query
 * rows [qlo, qlo + m) of the profiled query (qlo >= 0, qlo + m at
 * most its length) against subject[0, n) with the band around
 * @p center_diagonal (window coordinates, d = j - i). Returns
 * nullopt when the band cannot run in 16-bit lanes: half_width
 * above BandProfile::maxHalfWidth, a gap cost outside
 * 0 <= extend <= open + extend <= 32767, or a best score within
 * the matrix maximum of 32767 (a cell may have saturated).
 */
std::optional<int> bandedScoreNative(const BandProfile &profile,
                                     int qlo, int m,
                                     const bio::Residue *subject,
                                     int n,
                                     const bio::GapPenalties &gaps,
                                     int center_diagonal,
                                     int half_width);

/**
 * The score-only band of the heuristics' scan bodies: the kernel
 * when @p profile is non-null and it accepts the band, else the
 * scalar band over query[qlo, qlo + m). Counts the path taken in
 * stats->bandSimd / stats->bandScalar.
 *
 * @param query the whole query; row 0 of the band is query[qlo]
 */
int bandedScore(const BandProfile *profile, const bio::Residue *query,
                int qlo, int m, const bio::Residue *subject, int n,
                const bio::ScoringMatrix &matrix,
                const bio::GapPenalties &gaps, int center_diagonal,
                int half_width, NativeScanStats *stats);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_BANDED_NATIVE_HH
