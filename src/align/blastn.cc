#include "blastn.hh"

#include <algorithm>
#include <cmath>

#include "blastn_impl.hh"
#include "traceback/banded_extend.hh"

namespace bioarch::align
{

namespace
{

/** 4^w. */
std::size_t
dnaWordSpace(int w)
{
    return std::size_t{1} << (2 * w);
}

/**
 * Karlin lambda for uniform-composition match/mismatch scoring:
 * the root of (1/4) e^{lambda*match} + (3/4) e^{lambda*mismatch} = 1.
 */
double
dnaLambda(int match, int mismatch)
{
    if (match <= 0)
        return 0.0;
    auto f = [&](double lambda) {
        return 0.25 * std::exp(lambda * match)
            + 0.75 * std::exp(lambda * mismatch) - 1.0;
    };
    double hi = 1.0;
    while (f(hi) < 0.0)
        hi *= 2.0;
    double lo = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        (f(mid) < 0.0 ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
}

} // namespace

DnaWordIndex::DnaWordIndex(const bio::PackedDna &query, int word_size)
    : _wordSize(word_size), _heads(dnaWordSpace(word_size) + 1, 0)
{
    const std::size_t m = query.length();
    if (m < static_cast<std::size_t>(word_size))
        return;
    const std::size_t num = m - static_cast<std::size_t>(word_size)
        + 1;
    const std::uint32_t mask = static_cast<std::uint32_t>(
        dnaWordSpace(word_size) - 1);

    std::vector<std::uint32_t> words(num);
    std::uint32_t w = 0;
    for (std::size_t i = 0; i < m; ++i) {
        w = ((w << 2) | query[i]) & mask;
        if (i + 1 >= static_cast<std::size_t>(word_size)) {
            const std::size_t start =
                i + 1 - static_cast<std::size_t>(word_size);
            words[start] = w;
            ++_heads[w + 1];
        }
    }
    for (std::size_t k = 1; k < _heads.size(); ++k)
        _heads[k] += _heads[k - 1];
    _positions.resize(num);
    std::vector<std::int32_t> cursor(_heads.begin(),
                                     _heads.end() - 1);
    for (std::size_t i = 0; i < num; ++i)
        _positions[static_cast<std::size_t>(
            cursor[words[i]]++)] = static_cast<std::int32_t>(i);
}

namespace
{

/** Window of a residue-array subject (bases stored as residues). */
bio::Sequence
residueWindow(const bio::Residue *subject, int lo, int hi)
{
    return bio::Sequence(
        "subject", "window",
        std::vector<bio::Residue>(subject + lo, subject + hi + 1));
}

} // namespace

template BlastnScores blastnScan(const DnaWordIndex &,
                                 const bio::PackedDna &,
                                 const bio::PackedDna &,
                                 const BlastnParams &, std::uint64_t *,
                                 BlastnNoTrace &);

BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           const bio::PackedDna &subject, const BlastnParams &params,
           std::uint64_t *cells)
{
    BlastnNoTrace none;
    return blastnScan(index, query, subject, params, cells, none);
}

BlastnScores
blastnScan(const DnaWordIndex &index, const bio::PackedDna &query,
           const bio::Residue *subject, std::size_t subject_len,
           const BlastnParams &params, std::uint64_t *cells)
{
    BlastnNoTrace none;
    return detail::blastnScan(
        index, query,
        [&](int k) { return static_cast<unsigned>(subject[k]); },
        [&](int lo, int hi) { return residueWindow(subject, lo, hi); },
        static_cast<int>(subject_len), params, cells, none);
}

CigarAlignment
blastnAlign(const DnaWordIndex &index, const bio::PackedDna &query,
            const bio::Residue *subject, std::size_t subject_len,
            const BlastnParams &params, std::uint64_t *cells,
            int x_drop_gapped, TracebackStats *stats)
{
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject_len);
    BlastnNoTrace none;
    const detail::HspScanN hsp = detail::hspScanN(
        index, query,
        [&](int k) { return static_cast<unsigned>(subject[k]); }, n,
        params, cells, none);

    CigarAlignment out;
    const GappedWindow win = detail::gappedWindowN(hsp, m, n, params);
    if (win.empty())
        return out;
    // Same window, band and scoring as the score-only gapped
    // stage; a disabled X-drop keeps the traced score
    // bit-identical to blastnScan's.
    const bio::Sequence qw =
        detail::decode(query, win.queryLo, win.queryHi);
    const bio::ScoringMatrix mm = bio::makeMatchMismatch(
        params.matchScore, params.mismatchScore);
    const bio::GapPenalties gaps{params.gapOpen, params.gapExtend};
    out = bandedExtendAlign(
        qw.residues().data(), qw.length(), subject + win.subjectLo,
        static_cast<std::size_t>(win.subjectHi - win.subjectLo + 1),
        mm, gaps, win.center, params.bandHalfWidth, x_drop_gapped,
        stats);
    if (cells && stats)
        *cells += stats->totalCells;
    if (out.empty())
        return out;
    out.qBegin += win.queryLo;
    out.qEnd += win.queryLo;
    out.sBegin += win.subjectLo;
    out.sEnd += win.subjectLo;
    return out;
}

SearchResults
blastnSearch(const bio::PackedDna &query, const bio::DnaDatabase &db,
             const BlastnParams &params, std::size_t max_hits)
{
    SearchResults out;
    const DnaWordIndex index(query, params.wordSize);
    const double lambda =
        dnaLambda(params.matchScore, params.mismatchScore);
    const double k = 0.3; // standard blastn-scale constant
    const double total = static_cast<double>(db.totalBases());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const BlastnScores bs = blastnScan(
            index, query, db[idx], params, &out.cellsComputed);
        ++out.sequencesSearched;
        if (bs.score <= 0)
            continue;
        SearchHit hit;
        hit.dbIndex = idx;
        hit.score = bs.score;
        hit.bitScore =
            (lambda * bs.score - std::log(k)) / std::log(2.0);
        hit.evalue = k * static_cast<double>(query.length()) * total
            * std::exp(-lambda * bs.score);
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
