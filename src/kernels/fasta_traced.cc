#include "fasta_traced.hh"

#include <algorithm>

#include "align/banded_impl.hh"
#include "align/fasta_impl.hh"
#include "bio/scoring.hh"
#include "trace/tracer.hh"

namespace bioarch::kernels
{

namespace
{

using trace::Reg;
using trace::Tracer;

/**
 * Memory image of the traced program: k-tuple CSR table (heads +
 * positions), the per-diagonal run-state array, the scoring matrix,
 * query and database bytes, and the banded-opt H/E rows.
 */
struct FastaImage
{
    isa::Addr heads;
    isa::Addr pos;
    isa::Addr diag;  ///< 16-byte run-state record per diagonal
    isa::Addr mat;
    isa::Addr query;
    isa::Addr rows;
    isa::Addr db;
};

/** Trace policy of align::fastaScan. */
class FastaTrace
{
  public:
    FastaTrace(Tracer &t, const FastaImage &img) : _t(t), _img(img) {}

    /** Per-sequence setup of a subject at @p seq_base with
     * @p num_diags diagonals: clear the diagonal array (the real
     * code re-zeroes its active diagonals between sequences). */
    void
    sequence(isa::Addr seq_base, int num_diags)
    {
        _seqBase = seq_base;
        _dbPtr = _t.alu();
        _diagBase = _t.alu();
        for (int d = 0; d < num_diags; d += 16) {
            _t.store(_img.diag + static_cast<isa::Addr>(d) * 16, 16,
                     Reg{}, {_diagBase});
            _t.alu({_diagBase});
            _t.branch(d + 16 < num_diags, {_diagBase});
        }
    }

    // ---- Stage 2: word scan + diagonal accumulation -------------

    void scan() { _word = _t.alu(); } // rolling word register

    void
    word(int j, std::uint32_t w, bool hits)
    {
        // Roll the next residue into the word, index the heads
        // table, test for hits.
        Reg r_res = _t.load(_seqBase + static_cast<isa::Addr>(j), 1,
                            {_dbPtr});
        _word = _t.alu({_word, r_res});
        Reg r_taddr = _t.alu({_word});
        _head = _t.load(_img.heads + static_cast<isa::Addr>(w) * 4, 4,
                        {r_taddr});
        Reg r_tail = _t.load(
            _img.heads + static_cast<isa::Addr>(w + 1) * 4, 4,
            {r_taddr});
        Reg r_cnt = _t.alu({_head, r_tail});
        _t.branch(hits, {r_cnt});
    }

    void
    hit(int slot, int d, bool overlap, bool extend, bool improved,
        bool more)
    {
        // Load the query position and the diagonal state (two
        // words of the 16-byte record).
        Reg r_qpos = _t.load(
            _img.pos + static_cast<isa::Addr>(slot) * 4, 4, {_head});
        Reg r_d = _t.alu({r_qpos});
        const isa::Addr ds_addr =
            _img.diag + static_cast<isa::Addr>(d) * 16;
        Reg r_last = _t.load(ds_addr, 4, {r_d});
        Reg r_run = _t.load(ds_addr + 8, 8, {r_d});
        Reg r_gap = _t.alu({r_qpos, r_last});

        _t.branch(overlap, {r_gap});
        if (overlap) {
            r_run = _t.alu({r_run, r_gap});
        } else {
            _t.branch(extend, {r_run, r_gap});
            if (extend)
                r_run = _t.alu({r_run, r_gap});
            else
                r_run = _t.alu({r_gap});
        }
        _t.store(ds_addr, 4, r_qpos, {r_d});
        _t.store(ds_addr + 8, 4, r_run, {r_d});

        _t.branch(improved, {r_run});
        if (improved)
            _t.store(ds_addr + 12, 4, r_run, {r_d});
        _t.branch(more, {_head});
    }

    void wordEnd(bool more) { _t.branch(more, {_dbPtr}); } // scan loop

    // ---- collect candidate regions ------------------------------

    void
    sweep(int d, bool region)
    {
        // Savemax sweep: one load + test per active diagonal.
        if ((d & 15) == 0)
            _t.load(_img.diag + static_cast<isa::Addr>(d) * 16, 16,
                    {_diagBase});
        if (region)
            _t.branch(true, {_diagBase});
    }

    // ---- Stage 3: matrix rescoring (init1) ----------------------

    void rescore() { _racc = _t.alu(); }

    void
    rescoreCell(int i, int j, bool restart, bool improved, bool more)
    {
        // Kadane cell: q/s residue loads, matrix lookup, accumulate,
        // two data-dependent tests.
        Reg r_q = _t.load(_img.query + static_cast<isa::Addr>(i), 1, {});
        Reg r_s = _t.load(_seqBase + static_cast<isa::Addr>(j), 1, {});
        Reg r_maddr = _t.alu({r_q, r_s});
        Reg r_sc = _t.load(_img.mat, 1, {r_maddr});
        _t.branch(restart, {_racc});
        if (restart)
            _racc = _t.alu({r_sc});
        else
            _racc = _t.alu({_racc, r_sc});
        _t.branch(improved, {_racc});
        _t.branch(more, {});
    }

    // ---- Stage 4: region chaining (initn) -----------------------

    void chain() { _chain = _t.alu(); }

    void
    chainRegion(bool joins)
    {
        // Compare/join: a handful of scalar ops per region.
        Reg r_reg = _t.load(_img.diag, 8, {_diagBase});
        Reg r_cmp = _t.alu({_chain, r_reg});
        _t.branch(joins, {r_cmp});
        if (joins)
            _chain = _t.alu({_chain, r_reg});
        else
            _chain = _t.alu({_chain});
    }

    // ---- Stage 5: banded opt ------------------------------------

    void
    opt(bool runs)
    {
        _t.branch(runs, {_chain});
        if (runs) {
            _h = _t.alu();
            _rowPtr = _t.alu();
        }
    }

    /** Stage 5's banded DP: the scalar band, one optCell per
     * cell. */
    int
    optBand(const bio::Residue *query, int m,
            const bio::Residue *subject, int n,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, int center, int half_width)
    {
        return align::bandedSmithWatermanScan(
                   query, m, subject, n, matrix, gaps, center,
                   half_width,
                   [&](int i, int, int h, int, int f) {
                       optCell(i, h, f);
                   })
            .score;
    }

  private:
    void
    optCell(int i, int h, int f)
    {
        // Per banded cell: profile + H/E row loads, the recurrence
        // ALU work, the computation-avoidance test, row stores.
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

    Tracer &_t;
    const FastaImage _img;
    isa::Addr _seqBase = 0;
    Reg _dbPtr, _diagBase, _word, _head, _racc, _chain, _h, _rowPtr;
};

} // namespace

TracedRun
traceFasta(const TraceInput &input)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const align::FastaParams params;

    const bio::Sequence &query = input.query;
    const int m = static_cast<int>(query.length());
    const align::KtupIndex index(query, params.ktup);
    const std::size_t max_n = input.db.maxLength();

    Tracer t("FASTA34");

    FastaImage img;
    img.heads = t.alloc((index.tableSize() + 1) * 4, "ktup heads");
    img.pos = t.alloc(static_cast<std::size_t>(std::max(m, 1)) * 4,
                      "ktup positions");
    img.diag = t.alloc((static_cast<std::size_t>(m) + max_n) * 16,
                       "diagonal state");
    img.mat = t.alloc(static_cast<std::size_t>(bio::Alphabet::numSymbols)
                          * bio::Alphabet::numSymbols,
                      "scoring matrix");
    img.query = t.alloc(static_cast<std::size_t>(m), "query residues");
    img.rows = t.alloc(static_cast<std::size_t>(m) * 8,
                       "banded H/E rows");
    img.db = t.alloc(input.db.totalResidues(), "database residues");

    FastaTrace policy(t, img);

    TracedRun run;
    run.scores.reserve(input.db.size());
    isa::Addr seq_base = img.db;
    for (const bio::Sequence &subject : input.db) {
        const int n = static_cast<int>(subject.length());
        policy.sequence(seq_base, m + n - 1);
        const align::FastaScores fs = align::fastaScan(
            index, query, subject, matrix, gaps, params, nullptr,
            policy);
        run.scores.push_back(std::max(fs.opt, fs.initn));
        seq_base += static_cast<isa::Addr>(n);
        t.jump();
    }

    run.trace = t.take();
    return run;
}

} // namespace bioarch::kernels
