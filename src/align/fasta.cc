#include "fasta.hh"

#include <algorithm>
#include <cmath>

#include "fasta_impl.hh"
#include "karlin.hh"

namespace bioarch::align
{

namespace
{

/** Power of the alphabet size, for direct-address table sizing. */
std::size_t
tablePower(int ktup)
{
    std::size_t size = 1;
    for (int k = 0; k < ktup; ++k)
        size *= bio::Alphabet::numSymbols;
    return size;
}

} // namespace

KtupIndex::KtupIndex(const bio::Sequence &query, int ktup)
    : _ktup(ktup), _queryLength(static_cast<int>(query.length())),
      _heads(tablePower(ktup) + 1, 0)
{
    const int num_words = _queryLength - _ktup + 1;
    if (num_words <= 0)
        return;

    // Counting pass, then prefix sums (CSR construction).
    std::vector<std::uint32_t> words(
        static_cast<std::size_t>(num_words));
    for (int i = 0; i < num_words; ++i) {
        words[static_cast<std::size_t>(i)] =
            encode(query.residues().data() + i);
        ++_heads[words[static_cast<std::size_t>(i)] + 1];
    }
    for (std::size_t w = 1; w < _heads.size(); ++w)
        _heads[w] += _heads[w - 1];

    _positions.resize(static_cast<std::size_t>(num_words));
    std::vector<std::int32_t> cursor(_heads.begin(), _heads.end() - 1);
    for (int i = 0; i < num_words; ++i) {
        const std::uint32_t w = words[static_cast<std::size_t>(i)];
        _positions[static_cast<std::size_t>(cursor[w]++)] = i;
    }
}

template FastaScores fastaScan(const KtupIndex &, const bio::Sequence &,
                               const bio::Sequence &,
                               const bio::ScoringMatrix &,
                               const bio::GapPenalties &,
                               const FastaParams &, std::uint64_t *,
                               FastaNoTrace &);

FastaScores
fastaScan(const KtupIndex &index, const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const FastaParams &params,
          std::uint64_t *cells, const BandProfile *band,
          NativeScanStats *stats)
{
    FastaNoTrace none{band, stats};
    return fastaScan(index, query, subject, matrix, gaps, params, cells,
                     none);
}

SearchResults
fastaSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, const FastaParams &params,
            std::size_t max_hits)
{
    SearchResults out;
    const KtupIndex index(query, params.ktup);
    const std::unique_ptr<BandProfile> band =
        makeBandProfile(query, matrix, defaultScanBackend());
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const FastaScores fs =
            fastaScan(index, query, db[idx], matrix, gaps, params,
                      &out.cellsComputed, band.get());
        ++out.sequencesSearched;
        const int score = std::max(fs.opt, fs.initn);
        if (score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = score;
        hit.bitScore = ka.bitScore(score);
        hit.evalue = ka.evalue(
            score, static_cast<double>(query.length()), total);
        out.hits.push_back(hit);
    }
    std::sort(out.hits.begin(), out.hits.end(),
              [](const SearchHit &a, const SearchHit &b) {
                  return a.score > b.score;
              });
    if (out.hits.size() > max_hits)
        out.hits.resize(max_hits);
    return out;
}

} // namespace bioarch::align
