#include "banded.hh"

#include "banded_impl.hh"
#include "banded_native.hh"

namespace bioarch::align
{

LocalScore
bandedSmithWaterman(const bio::Sequence &query,
                    const bio::Sequence &subject,
                    const bio::ScoringMatrix &matrix,
                    const bio::GapPenalties &gaps,
                    int center_diagonal, int half_width)
{
    return bandedSmithWatermanScan(
        query, subject, matrix, gaps, center_diagonal, half_width,
        [](int, int, int, int, int) {});
}

BandProfile::BandProfile(const bio::Residue *query, int m,
                         const bio::ScoringMatrix &matrix,
                         SimdBackend backend)
    : _backend(backend), _maxScore(matrix.maxScore()),
      _stride(static_cast<std::size_t>(m + 2 * pad))
{
    _scores = vec::native::allocateAligned<std::int16_t>(
        static_cast<std::size_t>(bio::Alphabet::numSymbols) * _stride);
    for (int c = 0; c < bio::Alphabet::numSymbols; ++c) {
        std::int16_t *row =
            _scores.get() + static_cast<std::size_t>(c) * _stride;
        const std::int8_t *scores =
            matrix.row(static_cast<bio::Residue>(c));
        for (int i = -pad; i < m + pad; ++i)
            row[i + pad] = i >= 0 && i < m ? scores[query[i]] : 0;
    }
}

std::unique_ptr<BandProfile>
makeBandProfile(const bio::Sequence &query,
                const bio::ScoringMatrix &matrix, SimdBackend backend)
{
    if (backend == SimdBackend::Model)
        backend = bestNativeBackend();
    if (backend == SimdBackend::Portable)
        return nullptr;
    return std::make_unique<BandProfile>(
        query.residues().data(), static_cast<int>(query.length()),
        matrix, backend);
}

int
bandedScore(const BandProfile *profile, const bio::Residue *query,
            int qlo, int m, const bio::Residue *subject, int n,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, int center_diagonal,
            int half_width, NativeScanStats *stats)
{
    if (profile != nullptr) {
        const std::optional<int> score =
            bandedScoreNative(*profile, qlo, m, subject, n, gaps,
                              center_diagonal, half_width);
        if (score) {
            if (stats != nullptr)
                ++stats->bandSimd;
            return *score;
        }
    }
    if (stats != nullptr)
        ++stats->bandScalar;
    return bandedSmithWatermanScan(query + qlo, m, subject, n, matrix,
                                   gaps, center_diagonal, half_width,
                                   [](int, int, int, int, int) {})
        .score;
}

} // namespace bioarch::align
