#include "blastn_traced.hh"

#include <algorithm>

#include "align/blastn_impl.hh"
#include "trace/tracer.hh"

namespace bioarch::kernels
{

namespace
{

using trace::Reg;
using trace::Tracer;

/** Memory image of the traced program. */
struct BlastnImage
{
    isa::Addr heads; ///< 4^w + 1 word heads (256 KB at w = 8)
    isa::Addr pos;
    isa::Addr diag;  ///< 4-byte extent per diagonal
    isa::Addr query; ///< packed query bytes
    isa::Addr rows;
    isa::Addr db;    ///< packed database bytes
};

/** Trace policy of align::blastnScan (packed subject). */
class BlastnTrace
{
  public:
    BlastnTrace(Tracer &t, const BlastnImage &img) : _t(t), _img(img) {}

    /** Per-sequence setup of a subject at @p seq_base with
     * @p num_diags diagonals: clear the diagonal extents. */
    void
    sequence(isa::Addr seq_base, int num_diags)
    {
        _seqBase = seq_base;
        _dbPtr = _t.alu();
        _diagBase = _t.alu();
        for (int d = 0; d < num_diags; d += 32) {
            _t.store(_img.diag + static_cast<isa::Addr>(d) * 4, 16,
                     Reg{}, {_diagBase});
            _t.branch(d + 32 < num_diags, {_diagBase});
        }
        _lastByte = -1;
        _byte = Reg{};
    }

    void scan() { _word = _t.alu(); }

    void
    roll(int j)
    {
        // Roll the next base into the word register.
        _lastByte = -1; // subject pointer moved
        Reg r_base = unpack(_seqBase, j, _dbPtr);
        _word = _t.alu({_word, r_base});
    }

    void
    word(std::uint32_t word, bool hits)
    {
        Reg r_taddr = _t.alu({_word});
        _head = _t.load(_img.heads + static_cast<isa::Addr>(word) * 4,
                        4, {r_taddr});
        Reg r_tail = _t.load(
            _img.heads + static_cast<isa::Addr>(word + 1) * 4, 4,
            {r_taddr});
        Reg r_cnt = _t.alu({_head, r_tail});
        _t.branch(hits, {r_cnt});
    }

    void
    hit(int slot, int d, bool covered)
    {
        Reg r_qpos = _t.load(
            _img.pos + static_cast<isa::Addr>(slot) * 4, 4, {_head});
        _d = _t.alu({r_qpos});
        _dsAddr = _img.diag + static_cast<isa::Addr>(d) * 4;
        Reg r_ext = _t.load(_dsAddr, 4, {_d});
        _t.branch(covered, {r_ext});
    }

    // ---- ungapped extension (Listing 1's nested unpack-compare
    // cascade per base) -------------------------------------------

    void
    extend()
    {
        _run = _t.alu();
        _lastByte = -1;
    }

    // The two directions are separate loops in the real code, so
    // each keeps its own compare and branch sites (static PCs); only
    // the unpack sequence is shared.
    void
    rightBase(int qi, int sj, bool match)
    {
        Reg r_q = unpack(_img.query, qi, Reg{});
        Reg r_s = unpack(_seqBase, sj, _dbPtr);
        Reg r_cmp = _t.alu({r_q, r_s});
        _t.branch(match, {r_cmp});
        _run = _t.alu({_run, r_cmp});
    }

    void rightStep(bool drop) { _t.branch(drop, {_run}); }

    void left() { _lastByte = -1; }

    void
    leftBase(int qi, int sj, bool match)
    {
        Reg r_q = unpack(_img.query, qi, Reg{});
        Reg r_s = unpack(_seqBase, sj, _dbPtr);
        Reg r_cmp = _t.alu({r_q, r_s});
        _t.branch(match, {r_cmp});
        _run = _t.alu({_run, r_cmp});
    }

    void leftStep(bool drop) { _t.branch(drop, {_run}); }

    void
    extended(bool improved, bool more)
    {
        _t.store(_dsAddr, 4, _run, {_d});
        _t.branch(improved, {_run});
        _t.branch(more, {_head});
    }

    void wordEnd(bool more) { _t.branch(more, {_dbPtr}); } // scan loop

    // ---- gapped extension ---------------------------------------

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

    void
    gappedCell(int i, int h, int f)
    {
        const isa::Addr cell = _img.rows + static_cast<isa::Addr>(i) * 8;
        Reg r_sc = _t.load(cell, 8, {_rowPtr});
        Reg r_x1 = _t.alu({_h, r_sc});
        Reg r_x2 = _t.alu({r_x1});
        _h = _t.alu({r_x2});
        _t.branch(h > 0, {_h});
        _t.branch(f > 0, {_h});
        _t.store(cell, 8, _h, {_rowPtr});
        _rowPtr = _t.alu({_rowPtr});
    }

  private:
    /**
     * An instrumented byte-unpacking read of base @p pos of a
     * packed sequence: a byte load (amortized: one per 4 bases,
     * modeled as reload on byte change) + shift/mask ALU.
     */
    Reg
    unpack(isa::Addr base_addr, int pos, Reg addr_dep)
    {
        const int byte = pos >> 2;
        if (byte != _lastByte || !_byte.valid()) {
            _byte = _t.load(base_addr + static_cast<isa::Addr>(byte), 1,
                            {addr_dep});
            _lastByte = byte;
        }
        Reg r_shift = _t.alu({_byte}); // srwi + andi (the
        return _t.alu({r_shift});      // READDB_UNPACK_BASE)
    }

    Tracer &_t;
    const BlastnImage _img;
    isa::Addr _seqBase = 0;
    isa::Addr _dsAddr = 0;
    int _lastByte = -1;
    Reg _byte;
    Reg _dbPtr, _diagBase, _word, _head, _d, _run, _h, _rowPtr;
};

} // namespace

BlastnTracedRun
traceBlastn(const bio::PackedDna &query, const bio::DnaDatabase &db,
            const align::BlastnParams &params)
{
    const align::DnaWordIndex index(query, params.wordSize);
    const int m = static_cast<int>(query.length());

    std::size_t max_n = 0;
    std::size_t total_bytes = 0;
    for (const bio::PackedDna &s : db) {
        max_n = std::max(max_n, s.length());
        total_bytes += s.bytes().size();
    }

    Tracer t("BLASTN");

    BlastnImage img;
    img.heads = t.alloc((index.tableSize() + 1) * 4, "word heads (256K)");
    img.pos = t.alloc(std::max<std::size_t>(index.numWords(), 1) * 4,
                      "word positions");
    img.diag = t.alloc((static_cast<std::size_t>(m) + max_n) * 4,
                       "diag extents");
    img.query = t.alloc((query.length() + 3) / 4, "packed query");
    img.rows = t.alloc(static_cast<std::size_t>(m) * 8,
                       "gapped H/E rows");
    img.db = t.alloc(std::max<std::size_t>(total_bytes, 1),
                     "packed database");

    BlastnTrace policy(t, img);

    BlastnTracedRun run;
    run.scores.reserve(db.size());
    isa::Addr seq_base = img.db;
    for (const bio::PackedDna &subject : db) {
        const int n = static_cast<int>(subject.length());
        policy.sequence(seq_base, m + n - 1);
        run.scores.push_back(
            align::blastnScan(index, query, subject, params, nullptr,
                              policy)
                .score);
        seq_base += static_cast<isa::Addr>(subject.bytes().size());
        t.jump();
    }

    run.trace = t.take();
    return run;
}

} // namespace bioarch::kernels
