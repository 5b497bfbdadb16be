#include "ssearch.hh"

#include <algorithm>

#include "karlin.hh"
#include "ssearch_impl.hh"

namespace bioarch::align
{

QueryProfile::QueryProfile(const bio::Sequence &query,
                           const bio::ScoringMatrix &matrix)
    : _queryLength(static_cast<int>(query.length())),
      _rows(static_cast<std::size_t>(bio::Alphabet::numSymbols)
                * _queryLength,
            0)
{
    for (int r = 0; r < bio::Alphabet::numSymbols; ++r) {
        std::int16_t *row =
            _rows.data() + static_cast<std::size_t>(r) * _queryLength;
        for (int i = 0; i < _queryLength; ++i) {
            row[i] = static_cast<std::int16_t>(
                matrix.score(query[i], static_cast<bio::Residue>(r)));
        }
    }
}

template LocalScore ssearchScan(const QueryProfile &,
                                const bio::Sequence &,
                                const bio::GapPenalties &,
                                std::uint64_t *, SsearchNoTrace &);

LocalScore
ssearchScan(const QueryProfile &profile, const bio::Sequence &subject,
            const bio::GapPenalties &gaps, std::uint64_t *cells)
{
    SsearchNoTrace none;
    return ssearchScan(profile, subject, gaps, cells, none);
}

SearchResults
ssearchSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
              const bio::ScoringMatrix &matrix,
              const bio::GapPenalties &gaps, std::size_t max_hits)
{
    SearchResults out;
    const QueryProfile profile(query, matrix);
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const LocalScore ls =
            ssearchScan(profile, db[idx], gaps, &out.cellsComputed);
        ++out.sequencesSearched;
        if (ls.score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = ls.score;
        hit.queryEnd = ls.queryEnd;
        hit.subjectEnd = ls.subjectEnd;
        hit.bitScore = ka.bitScore(ls.score);
        hit.evalue =
            ka.evalue(ls.score, static_cast<double>(query.length()),
                      total);
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
