#include "blast.hh"

#include <algorithm>

#include "blast_impl.hh"
#include "karlin.hh"
#include "traceback/banded_extend.hh"

namespace bioarch::align
{

namespace
{

std::size_t
wordSpace(int word_size)
{
    std::size_t space = 1;
    for (int k = 0; k < word_size; ++k)
        space *= bio::Alphabet::numSymbols;
    return space;
}

} // namespace

NeighborhoodIndex::NeighborhoodIndex(const bio::Sequence &query,
                                     const bio::ScoringMatrix &matrix,
                                     const BlastParams &params)
    : _wordSize(params.wordSize),
      _queryLength(static_cast<int>(query.length())),
      _heads(wordSpace(params.wordSize) + 1, 0)
{
    const int num_words = _queryLength - _wordSize + 1;
    if (num_words <= 0)
        return;

    // Enumerate, for every query word, all words over the 20 real
    // residues whose pairwise score reaches the threshold T. The
    // candidate space is pruned with per-position "best remaining"
    // bounds so the recursion only explores viable prefixes.
    struct Entry
    {
        std::uint32_t word;
        std::int32_t qpos;
    };
    std::vector<Entry> entries;

    // bestTail[k] = max over residues of matrix row max, for the
    // remaining word positions k..w-1, given the query word.
    std::vector<int> row_max(
        static_cast<std::size_t>(bio::Alphabet::numSymbols), 0);
    for (int a = 0; a < bio::Alphabet::numSymbols; ++a) {
        int best = -1000;
        for (int b = 0; b < bio::Alphabet::numRealResidues; ++b)
            best = std::max(
                best, matrix.score(static_cast<bio::Residue>(a),
                                   static_cast<bio::Residue>(b)));
        row_max[static_cast<std::size_t>(a)] = best;
    }

    for (int i = 0; i < num_words; ++i) {
        const bio::Residue *qw = query.residues().data() + i;
        std::vector<int> tail(static_cast<std::size_t>(_wordSize) + 1,
                              0);
        for (int k = _wordSize - 1; k >= 0; --k)
            tail[static_cast<std::size_t>(k)] =
                tail[static_cast<std::size_t>(k) + 1]
                + row_max[qw[k]];

        // Iterative DFS over word prefixes.
        struct Frame { int residue; int score; };
        std::vector<Frame> stack(static_cast<std::size_t>(_wordSize),
                                 Frame{0, 0});
        int depth = 0;
        while (depth >= 0) {
            Frame &f = stack[static_cast<std::size_t>(depth)];
            if (f.residue >= bio::Alphabet::numRealResidues) {
                --depth;
                if (depth >= 0)
                    ++stack[static_cast<std::size_t>(depth)].residue;
                continue;
            }
            const int s = f.score
                + matrix.score(qw[depth],
                               static_cast<bio::Residue>(f.residue));
            // Prune: even perfect remaining residues cannot reach T.
            if (s + tail[static_cast<std::size_t>(depth) + 1]
                < params.neighborThreshold) {
                ++f.residue;
                continue;
            }
            if (depth == _wordSize - 1) {
                if (s >= params.neighborThreshold) {
                    std::uint32_t w = 0;
                    for (int k = 0; k < _wordSize; ++k) {
                        const int r =
                            k == depth
                                ? f.residue
                                : stack[static_cast<std::size_t>(k)]
                                      .residue;
                        w = w * bio::Alphabet::numSymbols
                            + static_cast<std::uint32_t>(r);
                    }
                    entries.push_back(
                        Entry{w, static_cast<std::int32_t>(i)});
                }
                ++f.residue;
            } else {
                ++depth;
                stack[static_cast<std::size_t>(depth)] =
                    Frame{0, s};
            }
        }
    }

    // CSR construction.
    for (const Entry &e : entries)
        ++_heads[e.word + 1];
    for (std::size_t w = 1; w < _heads.size(); ++w)
        _heads[w] += _heads[w - 1];
    _positions.resize(entries.size());
    std::vector<std::int32_t> cursor(_heads.begin(), _heads.end() - 1);
    for (const Entry &e : entries)
        _positions[static_cast<std::size_t>(cursor[e.word]++)] =
            e.qpos;
}

UngappedExtension
ungappedExtend(const bio::Sequence &query, const bio::Sequence &subject,
               const bio::ScoringMatrix &matrix, int qpos, int spos,
               int seed_len, int x_drop)
{
    BlastNoTrace none;
    return ungappedExtend(query, subject, matrix, qpos, spos, seed_len,
                          x_drop, none);
}

GappedWindow
gappedWindow(const UngappedExtension &ext, int diag, int query_len,
             int subject_len, int margin)
{
    GappedWindow w;
    w.queryLo = std::max(0, ext.queryStart - margin);
    w.queryHi = std::min(query_len - 1, ext.queryEnd + margin);
    w.subjectLo = std::max(0, ext.queryStart + diag - margin);
    w.subjectHi =
        std::min(subject_len - 1, ext.queryEnd + diag + margin);
    w.center = diag - (w.subjectLo - w.queryLo);
    return w;
}

template BlastScores blastScan(const NeighborhoodIndex &,
                               const bio::Sequence &,
                               const bio::Sequence &,
                               const bio::ScoringMatrix &,
                               const bio::GapPenalties &,
                               const BlastParams &, std::uint64_t *,
                               BlastNoTrace &);

BlastScores
blastScan(const NeighborhoodIndex &index, const bio::Sequence &query,
          const bio::Sequence &subject, const bio::ScoringMatrix &matrix,
          const bio::GapPenalties &gaps, const BlastParams &params,
          std::uint64_t *cells, const BandProfile *band,
          NativeScanStats *stats)
{
    BlastNoTrace none{band, stats};
    return blastScan(index, query, subject, matrix, gaps, params, cells,
                     none);
}

CigarAlignment
blastAlign(const NeighborhoodIndex &index, const bio::Sequence &query,
           const bio::Sequence &subject,
           const bio::ScoringMatrix &matrix,
           const bio::GapPenalties &gaps, const BlastParams &params,
           std::uint64_t *cells, int x_drop_gapped,
           TracebackStats *stats)
{
    const int m = static_cast<int>(query.length());
    const int n = static_cast<int>(subject.length());
    BlastNoTrace none;
    const detail::HspScan hsp = detail::hspScan(
        index, query, subject, matrix, params, cells, none);

    CigarAlignment out;
    if (m < index.wordSize() || n < index.wordSize()
        || hsp.scores.bestUngapped < params.gapTrigger)
        return out;
    // Re-run the gapped stage of blastScan over the identical
    // window and band, with traceback. A disabled X-drop keeps the
    // banded sweep — and therefore the score — bit-identical to
    // the score-only scan the hit was ranked by.
    const GappedWindow win =
        gappedWindow(hsp.bestExt, hsp.bestDiag, m, n,
                     params.gappedWindowMargin);
    out = bandedExtendAlign(
        query.residues().data() + win.queryLo,
        static_cast<std::size_t>(win.queryHi - win.queryLo + 1),
        subject.residues().data() + win.subjectLo,
        static_cast<std::size_t>(win.subjectHi - win.subjectLo + 1),
        matrix, gaps, win.center, params.bandHalfWidth, x_drop_gapped,
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
blastSearch(const bio::Sequence &query, const bio::SequenceDatabase &db,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, const BlastParams &params,
            std::size_t max_hits)
{
    SearchResults out;
    const NeighborhoodIndex index(query, matrix, params);
    const std::unique_ptr<BandProfile> band =
        makeBandProfile(query, matrix, defaultScanBackend());
    const KarlinParams &ka = blosum62Karlin();
    const double total = static_cast<double>(db.totalResidues());

    for (std::size_t idx = 0; idx < db.size(); ++idx) {
        const BlastScores bs =
            blastScan(index, query, db[idx], matrix, gaps, params,
                      &out.cellsComputed, band.get());
        ++out.sequencesSearched;
        const int score = std::max(bs.score, 0);
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
