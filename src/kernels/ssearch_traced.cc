#include "ssearch_traced.hh"

#include "align/ssearch_impl.hh"
#include "bio/scoring.hh"
#include "trace/tracer.hh"

namespace bioarch::kernels
{

namespace
{

using trace::Reg;
using trace::Tracer;

/**
 * Memory image of the traced program: a 16-bit query profile
 * (numSymbols rows of m scores), the ss[] array of {H, E} pairs,
 * and the database residues as one contiguous byte stream.
 */
struct SsearchImage
{
    isa::Addr profile; ///< numSymbols x m x 2 bytes
    isa::Addr ss;      ///< m x 8 bytes ({H,E} per query row)
    isa::Addr db;      ///< database residue bytes
};

/**
 * Trace policy of align::ssearchScan: three loads, two stores, ~6
 * integer ALU ops and 3-5 data-dependent branches per DP cell.
 */
class SsearchTrace
{
  public:
    SsearchTrace(Tracer &t, const SsearchImage &img, int m)
        : _t(t), _img(img), _m(m)
    {
    }

    /** Per-sequence setup of the subject at @p seq_base: clear the
     * ss[] array (memset-style loop: the real code re-initializes
     * the row between sequences) and load loop bounds. */
    void
    sequence(isa::Addr seq_base)
    {
        _seqBase = seq_base;
        _ssBase = _t.alu();        // la ss
        _dbPtr = _t.alu();         // sequence start pointer
        _len = _t.load(seq_base - 8, 4); // length header
        for (int i = 0; i < _m; i += 16) {
            // dcbz-style block clear, one store per 2 cells.
            _t.store(_img.ss + static_cast<isa::Addr>(i) * 8, 8,
                     Reg{}, {_ssBase});
            _t.alu({_ssBase});
            _t.branch(i + 16 < _m, {_len});
        }
        _best = _t.alu(); // li best, 0
    }

    void
    column(int j, bio::Residue res)
    {
        // Load the subject residue and derive the profile row.
        _res = _t.load(_seqBase + static_cast<isa::Addr>(j), 1,
                       {_dbPtr});
        _row = _t.alu({_res}); // rowbase = prof + res*m*2
        _rowAddr = _img.profile + static_cast<isa::Addr>(res) * _m * 2;
        _p = _t.alu();  // li p, 0
        _f = _t.alu();  // li f, 0
        _ss = _t.alu({_ssBase}); // mr ssj, ss
    }

    void
    cell(int i, bool f_gate, bool e_gate, bool h_gate, bool improved,
         bool more)
    {
        const isa::Addr cell_addr =
            _img.ss + static_cast<isa::Addr>(i) * 8;

        // h = p + *pwaa++ (update-form halfword load).
        Reg r_w = _t.load(_rowAddr + static_cast<isa::Addr>(i) * 2, 2,
                          {_row});
        Reg r_h = _t.alu({_p, r_w});

        // e = ssj->E; p = ssj->H (two loads).
        Reg r_e = _t.load(cell_addr + 4, 4, {_ss});
        _p = _t.load(cell_addr, 4, {_ss});

        // F path: if (f > 0) { h = max(h, f); f -= ext; }
        _t.alu({_f});              // cmpwi f, 0
        _t.branch(f_gate, {_f});
        if (f_gate) {
            r_h = _t.alu({r_h, _f});   // max via cmp+isel
            _f = _t.alu({_f});         // f -= gap_ext
        }

        // E path: if (e > 0) { h = max(h, e); e -= ext; }
        _t.alu({r_e});             // cmpwi e, 0
        _t.branch(e_gate, {r_e});
        if (e_gate) {
            r_h = _t.alu({r_h, r_e});
            r_e = _t.alu({r_e});
        }

        // H path with computation avoidance.
        _t.alu({r_h});             // cmpwi h, 0
        _t.branch(h_gate, {r_h});
        if (h_gate) {
            _t.branch(improved, {r_h, _best});
            if (improved)
                _best = _t.alu({r_h}); // mr best, h
            Reg r_open = _t.alu({r_h}); // open = h - ngap_init
            r_e = _t.alu({r_open, r_e}); // e = max(e, open)
            _f = _t.alu({r_open, _f});   // f = max(f, open)
        } else {
            r_h = _t.alu(); // li h, 0
        }

        // ssj->H = h; ssj->E = max(e, 0); ssj++.
        _t.store(cell_addr, 4, r_h, {_ss});
        _t.store(cell_addr + 4, 4, r_e, {_ss});
        _ss = _t.alu({_ss}); // addi ssj, 8
        _t.branch(more, {_ss}); // bdnz inner loop
    }

    void
    columnEnd(bool more)
    {
        _dbPtr = _t.alu({_dbPtr}); // advance subject pointer
        _t.branch(more, {_dbPtr, _len}); // outer loop
    }

  private:
    Tracer &_t;
    const SsearchImage _img;
    const int _m;
    isa::Addr _seqBase = 0;
    isa::Addr _rowAddr = 0;
    Reg _ssBase, _dbPtr, _len, _best;
    Reg _res, _row, _p, _f, _ss;
};

} // namespace

TracedRun
traceSsearch(const TraceInput &input)
{
    const bio::GapPenalties gaps;
    const int m = static_cast<int>(input.query.length());

    Tracer t("SSEARCH34");

    SsearchImage img;
    img.profile = t.alloc(
        static_cast<std::size_t>(bio::Alphabet::numSymbols) * m * 2,
        "query profile");
    img.ss = t.alloc(static_cast<std::size_t>(m) * 8, "ss[] H/E");
    img.db = t.alloc(input.db.totalResidues(), "database residues");

    const align::QueryProfile profile(input.query, bio::blosum62());
    SsearchTrace policy(t, img, m);

    TracedRun run;
    run.scores.reserve(input.db.size());
    isa::Addr seq_base = img.db;
    for (const bio::Sequence &subject : input.db) {
        policy.sequence(seq_base);
        run.scores.push_back(
            align::ssearchScan(profile, subject, gaps, nullptr, policy)
                .score);
        seq_base += static_cast<isa::Addr>(subject.length());
        t.jump(); // return to the database-scan driver
    }

    run.trace = t.take();
    return run;
}

} // namespace bioarch::kernels
