#include "blast_traced.hh"

#include <algorithm>

#include "align/banded_impl.hh"
#include "align/blast_impl.hh"
#include "bio/scoring.hh"
#include "trace/tracer.hh"

namespace bioarch::kernels
{

namespace
{

using trace::Reg;
using trace::Tracer;

/**
 * Memory image of the traced program. The neighborhood CSR heads
 * array over the full word space (~55 KB for w=3 over 23 symbols)
 * plus the position lists are BLAST's big, data-indexed working
 * set.
 */
struct BlastImage
{
    isa::Addr heads;
    isa::Addr pos;
    isa::Addr diag;  ///< 8-byte two-hit record per diagonal
    isa::Addr mat;
    isa::Addr query;
    isa::Addr rows;
    isa::Addr db;
};

/** Trace policy of align::blastScan. */
class BlastTrace
{
  public:
    BlastTrace(Tracer &t, const BlastImage &img,
               const align::NeighborhoodIndex &index)
        : _t(t), _img(img), _positions(index.positions(0).first)
    {
    }

    /** Per-sequence setup of a subject at @p seq_base with
     * @p num_diags diagonals: clear the diagonal array. */
    void
    sequence(isa::Addr seq_base, int num_diags)
    {
        _seqBase = seq_base;
        _dbPtr = _t.alu();
        _diagBase = _t.alu();
        for (int d = 0; d < num_diags; d += 16) {
            _t.store(_img.diag + static_cast<isa::Addr>(d) * 8, 8,
                     Reg{}, {_diagBase});
            _t.branch(d + 16 < num_diags, {_diagBase});
        }
    }

    void scan() { _word = _t.alu(); } // rolling packed word

    void
    word(int j, std::uint32_t word, bool hits)
    {
        // BlastWordFinder step: roll the next residue into the
        // packed word (Listing 1's READDB_UNPACK shift games), then
        // probe the lookup table.
        Reg r_res = _t.load(_seqBase + static_cast<isa::Addr>(j), 1,
                            {_dbPtr});
        _word = _t.alu({_word, r_res}); // shift+or
        Reg r_mask = _t.alu({_word});   // mask to word space
        _head = _t.load(_img.heads + static_cast<isa::Addr>(word) * 4,
                        4, {r_mask});
        Reg r_tail = _t.load(
            _img.heads + static_cast<isa::Addr>(word + 1) * 4, 4,
            {r_mask});
        // READDB_UNPACK-style dependent arithmetic on the loaded
        // table entries (Listing 1): the serial integer chain behind
        // each (possibly missing) load is what makes RG_FIX the top
        // BLAST trauma.
        Reg r_u1 = _t.alu({_head});
        Reg r_u2 = _t.alu({r_u1, r_tail});
        Reg r_cnt = _t.alu({r_u2});
        _t.branch(hits, {r_cnt});
    }

    void
    hit(const std::int32_t *p, int d, bool covered)
    {
        // Load the query position and the diagonal record (both
        // data-dependent addresses).
        Reg r_qpos = _t.load(
            _img.pos + static_cast<isa::Addr>(p - _positions) * 4, 4,
            {_head});
        _d = _t.alu({r_qpos});
        _dsAddr = _img.diag + static_cast<isa::Addr>(d) * 8;
        _state = _t.load(_dsAddr, 8, {_d});
        _t.branch(covered, {_state});
    }

    void distance() { _dist = _t.alu({_state}); }

    void overlap(bool overlaps) { _t.branch(overlaps, {_dist}); }

    void
    trigger(bool fires)
    {
        _t.store(_dsAddr, 4, _dist, {_d});
        _t.branch(!fires, {_dist});
    }

    // ---- ungapped X-drop extension ------------------------------

    void extend() { _run = _t.alu(); }

    // The two directions are separate loops in the real code, so
    // each keeps its own branch sites (static PCs); only the
    // residue loads and lookup are shared.
    void
    extendRight(int qi, int sj, bool improved, bool drop)
    {
        extendStep(qi, sj);
        _t.branch(improved, {_run});
        _t.branch(drop, {_run});
    }

    void
    extendLeft(int qi, int sj, bool improved, bool drop)
    {
        extendStep(qi, sj);
        _t.branch(improved, {_run});
        _t.branch(drop, {_run});
    }

    void
    extended(bool improved, bool more)
    {
        _t.store(_dsAddr + 4, 4, _run, {_d});
        _t.branch(improved, {_run});
        _t.branch(more, {_head});
    }

    void wordEnd(bool more) { _t.branch(more, {_dbPtr}); } // scan loop

    // ---- gapped extension of the best HSP -----------------------

    void
    gapped(bool fires)
    {
        Reg r_g = _t.alu();
        _t.branch(fires, {r_g});
        if (fires) {
            _h = _t.alu();
            _rowPtr = _t.alu();
        }
    }

    /** The gapped stage's banded DP: the scalar band, one
     * gappedCell per cell. */
    int
    gappedBand(const bio::Residue *query, int qlo, int m,
               const bio::Residue *subject, int n,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps, int center,
               int half_width)
    {
        return align::bandedSmithWatermanScan(
                   query + qlo, m, subject, n, matrix, gaps, center,
                   half_width,
                   [&](int i, int, int h, int, int f) {
                       gappedCell(i, h, f);
                   })
            .score;
    }

  private:
    void
    gappedCell(int i, int h, int f)
    {
        const isa::Addr cell = _img.rows + static_cast<isa::Addr>(i) * 8;
        Reg r_sc = _t.load(_img.mat, 1, {_rowPtr});
        Reg r_he = _t.load(cell, 8, {_rowPtr});
        Reg r_x1 = _t.alu({_h, r_sc});
        Reg r_x2 = _t.alu({r_x1, r_he});
        Reg r_x3 = _t.alu({r_x2});
        _h = _t.alu({r_x3});
        _t.branch(h > 0, {_h});
        _t.branch(f > 0, {_h});
        _t.store(cell, 8, _h, {_rowPtr});
        _rowPtr = _t.alu({_rowPtr});
    }

    /** One extension step, shared by both directions: residue
     * loads, matrix lookup, accumulate. */
    void
    extendStep(int qi, int sj)
    {
        Reg r_q = _t.load(_img.query + static_cast<isa::Addr>(qi), 1, {});
        Reg r_s = _t.load(_seqBase + static_cast<isa::Addr>(sj), 1, {});
        Reg r_ma = _t.alu({r_q, r_s});
        Reg r_sc = _t.load(_img.mat, 1, {r_ma});
        _run = _t.alu({_run, r_sc});
    }

    Tracer &_t;
    const BlastImage _img;
    /** Start of the index's position lists (slot 0 of the image's
     * positions array). */
    const std::int32_t *const _positions;
    isa::Addr _seqBase = 0;
    isa::Addr _dsAddr = 0;
    Reg _dbPtr, _diagBase, _word, _head, _d, _state, _dist, _run;
    Reg _h, _rowPtr;
};

} // namespace

TracedRun
traceBlast(const TraceInput &input)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const align::BlastParams params;

    const bio::Sequence &query = input.query;
    const int m = static_cast<int>(query.length());
    const align::NeighborhoodIndex index(query, matrix, params);
    const std::size_t max_n = input.db.maxLength();

    Tracer t("BLAST");

    BlastImage img;
    img.heads =
        t.alloc((index.tableSize() + 1) * 4, "neighborhood heads");
    img.pos = t.alloc(std::max<std::size_t>(index.numEntries(), 1) * 4,
                      "neighborhood positions");
    img.diag = t.alloc((static_cast<std::size_t>(m) + max_n) * 8,
                       "diagonal state");
    img.mat = t.alloc(static_cast<std::size_t>(bio::Alphabet::numSymbols)
                          * bio::Alphabet::numSymbols,
                      "scoring matrix");
    img.query = t.alloc(static_cast<std::size_t>(m), "query residues");
    img.rows = t.alloc(static_cast<std::size_t>(m) * 8,
                       "gapped H/E rows");
    img.db = t.alloc(input.db.totalResidues(), "database residues");

    BlastTrace policy(t, img, index);

    TracedRun run;
    run.scores.reserve(input.db.size());
    isa::Addr seq_base = img.db;
    for (const bio::Sequence &subject : input.db) {
        const int n = static_cast<int>(subject.length());
        policy.sequence(seq_base, m + n - 1);
        run.scores.push_back(align::blastScan(index, query, subject,
                                              matrix, gaps, params,
                                              nullptr, policy)
                                 .score);
        seq_base += static_cast<isa::Addr>(n);
        t.jump();
    }

    run.trace = t.take();
    return run;
}

} // namespace bioarch::kernels
