/**
 * @file
 * Header-only SSEARCH scan body with a trace policy.
 *
 * align::ssearchScan is this template instantiated with
 * SsearchNoTrace, whose hooks compile to nothing. The SSEARCH34
 * traced kernel (src/kernels) instantiates the same body with a
 * policy that emits the instruction pattern of each hook, so the
 * trace and the score come from one loop. Hooks only observe: they
 * receive positions and branch outcomes the body has already
 * decided.
 */

#ifndef BIOARCH_ALIGN_SSEARCH_IMPL_HH
#define BIOARCH_ALIGN_SSEARCH_IMPL_HH

#include <vector>

#include "ssearch.hh"

namespace bioarch::align
{

/** The ssearchScan trace hooks, as no-ops. */
struct SsearchNoTrace
{
    /** Column @p j starts; its subject residue is @p res. */
    void column(int /*j*/, bio::Residue /*res*/) {}
    /** Cell @p i of the column is done: the F, E and H gates taken,
     * whether H raised the best score, and whether the column has
     * more cells. */
    void cell(int /*i*/, bool /*f_gate*/, bool /*e_gate*/,
              bool /*h_gate*/, bool /*improved*/, bool /*more*/)
    {
    }
    /** The column is done; @p more: another column follows. */
    void columnEnd(bool /*more*/) {}
};

/**
 * ssearchScan (ssearch.hh) with trace policy @p trace.
 *
 * Empty inputs need no early return: both loops are then empty.
 */
template <typename Trace>
LocalScore
ssearchScan(const QueryProfile &profile, const bio::Sequence &subject,
            const bio::GapPenalties &gaps, std::uint64_t *cells,
            Trace &trace)
{
    const int m = profile.queryLength();
    const int n = static_cast<int>(subject.length());
    const int ngap_init = gaps.openCost(); // open + first extend
    const int gap_ext = gaps.extendCost();

    LocalScore best;

    // The ss[] array of dropgsw.c: one {H, E} pair per query
    // position, reused across subject positions.
    struct Cell { int h; int e; };
    std::vector<Cell> ss(static_cast<std::size_t>(m), Cell{0, 0});

    for (int j = 0; j < n; ++j) {
        const bio::Residue res = subject[j];
        const std::int16_t *pwaa = profile.row(res);
        trace.column(j, res);
        // p carries H[i-1][j-1] down the column; f carries F[i][j].
        int p = 0;
        int f = 0;
        for (int i = 0; i < m; ++i) {
            Cell &ssj = ss[static_cast<std::size_t>(i)];
            // h = H[i-1][j-1] + score (the `h = p + *pwaa++`).
            int h = p + pwaa[i];
            p = ssj.h;

            // F update (gap in subject, vertical). Written with the
            // same avoidance structure as E below.
            int e = ssj.e;
            const bool f_gate = f > 0;
            if (f_gate) {
                if (h < f)
                    h = f;
                f -= gap_ext;
            }
            // E update (gap in query, horizontal).
            const bool e_gate = e > 0;
            if (e_gate) {
                if (h < e)
                    h = e;
                e -= gap_ext;
            }
            const bool h_gate = h > 0;
            bool improved = false;
            if (h_gate) {
                improved = h > best.score;
                if (improved) {
                    best.score = h;
                    best.queryEnd = i;
                    best.subjectEnd = j;
                }
                const int open = h - ngap_init;
                if (open > e)
                    e = open;
                if (open > f)
                    f = open;
                ssj.h = h;
            } else {
                ssj.h = 0;
            }
            ssj.e = e > 0 ? e : 0;
            if (f < 0)
                f = 0;
            trace.cell(i, f_gate, e_gate, h_gate, improved, i + 1 < m);
        }
        if (cells)
            *cells += static_cast<std::uint64_t>(m);
        trace.columnEnd(j + 1 < n);
    }
    return best;
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_SSEARCH_IMPL_HH
